package rtmobile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
)

// TestLoadersCheckSpec: every loader — nn.Load for a model file, ReadBundle
// for a v4 bundle, MapBundle for a v5 one — refuses the same corrupt specs
// with an error, before building any shape from them: the cell word of the
// removed LSTM, an unknown cell word, zero layers and a hidden size no
// allocation could hold.
func TestLoadersCheckSpec(t *testing.T) {
	m := testModel(61)
	var model bytes.Buffer
	if err := m.Save(&model); err != nil {
		t.Fatal(err)
	}
	res := Prune(m, nil, PruneConfig{ColRate: 4, RowRate: 2, RowGroups: 4, ColBlocks: 4})
	eng, err := Compile(m, res.Scheme, DeployConfig{Target: device.MobileGPU()})
	if err != nil {
		t.Fatal(err)
	}
	var v4, v5 bytes.Buffer
	if err := eng.saveBundleV4(&v4, res.Scheme); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveBundleVersion(&v5, res.Scheme, 5); err != nil {
		t.Fatal(err)
	}

	// The model file and the v4 stream both carry the spec as six u64
	// words (input, hidden, layers, output, seed, cell) after an 8-byte
	// magic and version; v5 carries it in its JSON metadata.
	const specOff = 8
	setWord := func(image []byte, word int, v uint64) []byte {
		out := append([]byte(nil), image...)
		binary.LittleEndian.PutUint64(out[specOff+8*word:], v)
		return out
	}
	loaders := []struct {
		name string
		load func(t *testing.T, word int, v uint64) error
	}{
		{"nn.Load", func(t *testing.T, word int, v uint64) error {
			_, err := nn.Load(bytes.NewReader(setWord(model.Bytes(), word, v)))
			return err
		}},
		{"LoadBundle v4", func(t *testing.T, word int, v uint64) error {
			_, _, _, err := ReadBundle(bytes.NewReader(setWord(v4.Bytes(), word, v)), device.MobileGPU())
			return err
		}},
		{"MapBundle v5", func(t *testing.T, word int, v uint64) error {
			image := v5PatchMeta(t, v5.Bytes(), func(meta *v5Meta) {
				switch word {
				case 1:
					meta.Spec.Hidden = int(v)
				case 2:
					meta.Spec.NumLayers = int(v)
				case 5:
					meta.Spec.Cell = nn.CellType(v)
				}
			})
			path := filepath.Join(t.TempDir(), "model.rtmb")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			mb, err := MapBundle(path, device.MobileGPU())
			if err == nil {
				mb.Close()
			}
			return err
		}},
	}
	rows := []struct {
		name    string
		word    int
		v       uint64
		wantErr string
	}{
		{"LSTM cell", 5, 1, "LSTM support was removed"},
		{"unknown cell", 5, 7, "unknown cell type 7"},
		{"zero layers", 2, 0, "corrupt layer count 0"},
		{"oversized hidden", 1, 1 << 50, "corrupt model spec"},
	}
	for _, l := range loaders {
		for _, r := range rows {
			t.Run(l.name+"/"+r.name, func(t *testing.T) {
				err := l.load(t, r.word, r.v)
				if err == nil || !strings.Contains(err.Error(), r.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, r.wantErr)
				}
			})
		}
	}
}
