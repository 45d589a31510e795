package rtmobile

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"rtmobile/internal/device"
	"rtmobile/internal/nn"
)

// TestLoadersCheckSpec: every loader — nn.Load for a model file, ReadBundle
// and MapBundle for a bundle — refuses the same corrupt specs with an
// error, before building any shape from them: the cell word of the removed
// LSTM, an unknown cell word, zero layers and a hidden size no allocation
// could hold.
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
	var v5 bytes.Buffer
	if err := eng.SaveBundleVersion(&v5, res.Scheme, 5); err != nil {
		t.Fatal(err)
	}

	// The model file carries the spec as six u64 words (input, hidden,
	// layers, output, seed, cell) after an 8-byte magic and version; a
	// bundle carries it in its JSON metadata.
	const specOff = 8
	setWord := func(image []byte, word int, v uint64) []byte {
		out := append([]byte(nil), image...)
		binary.LittleEndian.PutUint64(out[specOff+8*word:], v)
		return out
	}
	setSpec := func(t *testing.T, word int, v uint64) []byte {
		return v5PatchMeta(t, v5.Bytes(), func(meta *v5Meta) {
			switch word {
			case 1:
				meta.Spec.Hidden = int(v)
			case 2:
				meta.Spec.NumLayers = int(v)
			case 5:
				meta.Spec.Cell = nn.CellType(v)
			}
		})
	}
	loaders := []struct {
		name string
		load func(t *testing.T, word int, v uint64) error
	}{
		{"nn.Load", func(t *testing.T, word int, v uint64) error {
			_, err := nn.Load(bytes.NewReader(setWord(model.Bytes(), word, v)))
			return err
		}},
		{"ReadBundle v5", func(t *testing.T, word int, v uint64) error {
			_, _, _, err := ReadBundle(bytes.NewReader(setSpec(t, word, v)), nil)
			return err
		}},
		{"MapBundle v5", func(t *testing.T, word int, v uint64) error {
			_, err := mapImage(t, setSpec(t, word, v), nil)
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
