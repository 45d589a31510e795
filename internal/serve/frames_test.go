package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeBoth runs the scanner and encoding/json on one body.
func decodeBoth(data []byte) (got [][]float32, gotErr error, want [][]float32, wantErr error) {
	var buf inferBuf
	got, gotErr = buf.decodeFrames(data)
	wantErr = json.Unmarshal(data, &want)
	return
}

// sameFrames holds the scanner to json.Unmarshal's result: same verdict,
// and on acceptance the same shape and the same float32 bits (a null row is
// a row of length 0 either way).
func sameFrames(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr, want, wantErr := decodeBoth(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: scanner err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d rows, encoding/json has %d", data, len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("body %q: row %d has %d values, encoding/json has %d", data, r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
				t.Fatalf("body %q: row %d value %d = %v (%#x), encoding/json has %v (%#x)", data, r, i,
					got[r][i], math.Float32bits(got[r][i]), want[r][i], math.Float32bits(want[r][i]))
			}
		}
	}
}

// frameCorpus is the seed set: every grammar corner the scanner has to
// agree with encoding/json on.
var frameCorpus = []string{
	`[[1,2,3],[4,5,6]]`,
	" \t\r\n[ [ 1 , 2 ] ,\n[ 3 , 4 ] ] \n",
	`[]`, `[[]]`, `[[],[]]`, `null`, `[null]`, `[[null,1]]`, ` null `,
	`[[1],[2,3],[]]`, // ragged
	`[[-0,0,-0.0,0.0e0,0E+5,-0e-7]]`,
	`[[1e5,1E5,1e+5,1e-5,1.5e3,12.25E-2]]`,
	`[[3.4028235e38,-3.4028235e38,3.4028236e38]]`, // max float32 and one past the rounding edge
	`[[3.5e38]]`, `[[1e39]]`, `[[-1e400]]`, // overflow
	`[[1e-45,1e-46,4.9e-324,1e-400]]`, // denormals and underflow to zero
	`[[0.1,0.2,0.30000001192092896,16777217,0.000001]]`,
	`[[123456789012345678901234567890123456789012345678901234567890]]`,
	`[[0.` + strings.Repeat("1", 60) + `]]`,
	// rejected
	``, ` `, `[`, `]`, `[[`, `[[1`, `[[1,`, `[[1]`, `[[1],`, `[[1]]]`, `[[1]] x`, `[[1]][[2]]`,
	`[[1,]]`, `[,[1]]`, `[[1],]`, `[[,1]]`, `[[1 2]]`,
	`[[01]]`, `[[00]]`, `[[1.]]`, `[[.5]]`, `[[+1]]`, `[[-]]`, `[[1e]]`, `[[1e+]]`, `[[--1]]`, `[[1.e5]]`, `[[0x10]]`,
	`[[NaN]]`, `[[Infinity]]`, `[[-Infinity]]`, `[[nul]]`, `[[nulll]]`, `nullx`, `[[Null]]`,
	`[1,2]`, `[[[1]]]`, `[[[]]]`, `{}`, `[{}]`, `[[{}]]`, `{"a":[[1]]}`, `"[[1]]"`, `[["1"]]`, `[[true]]`, `[true]`, `1`, `true`,
	"\ufeff[[1]]", "[[1]]\x00", "[[1\x00]]", "[\v[1]]",
}

func TestDecodeFramesMatchesJSON(t *testing.T) {
	for _, body := range frameCorpus {
		sameFrames(t, []byte(body))
	}
	// Reuse: a buffer that decoded a large body decodes a small one cleanly,
	// and a rejected body leaves nothing behind.
	var buf inferBuf
	if _, err := buf.decodeFrames([]byte(`[[1,2,3],[4,5,6],[7,8,9]]`)); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.decodeFrames([]byte(`[[1,2],[3`)); err == nil {
		t.Fatal("truncated body accepted")
	}
	rows, err := buf.decodeFrames([]byte(`[[5]]`))
	if err != nil || len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != 5 {
		t.Fatalf("reused buffer decoded %v, %v", rows, err)
	}
}

// FuzzDecodeFrames is the differential contract of the /infer body scanner:
// for any byte string, the same accept/reject verdict as json.Unmarshal
// into a [][]float32, and on acceptance the same rows bit for bit.
func FuzzDecodeFrames(f *testing.F) {
	for _, body := range frameCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { sameFrames(t, data) })
}

// TestAppendPosteriorsMatchesJSON: the response encoder's bytes are
// json.NewEncoder(w).Encode(post)'s, across the float32 range.
func TestAppendPosteriorsMatchesJSON(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, post := range [][][]float32{
		{{0.25, 0.5, 0.25}, {1, 0, 0}},
		{{}},
		{{}, {}},
		{{0, negZero, 1e-7, -1e-7, 1e-6, 9.999999e-7, 0.000001, 1e-5}},
		{{1e20, 1e21, 9.999999e20, -1e21, 1.0000001e21, 1e22, 3e38}},
		{{math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}},
		{{1.1754944e-38, 1.1754942e-38, 1e-40, 1e-45}}, // the normal/denormal edge
		{{1e-9, 1e-10, 1.5e-11, 1e+25, 1e-38}},         // one- and two-digit exponents
		{{0.1, 0.2, 0.3, 1.0 / 3, 16777216, 16777218, 123456.79, 0.99999994}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(post); err != nil {
			t.Fatal(err)
		}
		got, err := appendPosteriors(nil, post)
		if err != nil {
			t.Fatalf("%v: %v", post, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("encoder wrote %q, encoding/json writes %q", got, want.Bytes())
		}
	}
	// encoding/json refuses what JSON cannot carry; so does the encoder.
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := appendPosteriors(nil, [][]float32{{0.5, v}}); err == nil {
			t.Errorf("%v encoded without an error", v)
		}
		if err := json.NewEncoder(&bytes.Buffer{}).Encode([][]float32{{0.5, v}}); err == nil {
			t.Errorf("encoding/json accepts %v now; the encoder's refusal no longer mirrors it", v)
		}
	}
}

// TestInferWireMatchesEncodingJSON: end to end, a /infer response is byte
// for byte what encoding/json produced before the handler stopped using it.
func TestInferWireMatchesEncodingJSON(t *testing.T) {
	s := testServer(t, Config{})
	body := inferBody(t, 5, 8)
	var frames [][]float32
	if err := json.Unmarshal(body.Bytes(), &frames); err != nil {
		t.Fatal(err)
	}
	lease, err := s.reg.Acquire("default")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(lease.Engine().Infer(frames))
	lease.Release()
	for i := 0; i < 3; i++ { // the pooled buffers are reused from the second request on
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body.Bytes())))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("request %d: response %q, want %q", i, rec.Body.Bytes(), want.Bytes())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("Content-Type %q", got)
		}
	}
}

// TestMalformedBodiesRefused: a body that is not a frame array for this
// model is a client error — 400, no SLO sample, no retained trace, the
// pooled trace returned — whichever check catches it.
func TestMalformedBodiesRefused(t *testing.T) {
	s := testServer(t, Config{})
	pooled := s.pool.Get()
	s.pool.Put(pooled)
	for _, body := range []string{
		``, `[[1,2`, `{"frames":[[1]]}`, `[[1,2,3,4,5,6,7,8]] trailing`, `[[1e39,2,3,4,5,6,7,8]]`,
		`[]`, `null`, `[[1,2,3]]`, `[[1,2,3,4,5,6,7,8],[1]]`, `[null]`,
	} {
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	if _, total := s.slo.Totals(); total != 0 {
		t.Errorf("refused requests took %d SLO samples, want 0", total)
	}
	if offered, _ := s.tail.Stats(); offered != 0 {
		t.Errorf("refused requests offered %d traces to the tail sampler, want 0", offered)
	}
	if tr := s.pool.Get(); tr != pooled {
		t.Error("a refused request did not return its pooled trace")
	}
}

// TestInferWarmPathAllocs bounds what one warm /infer costs the heap: the
// payload — body, frames, posteriors, response — lives in pooled buffers,
// so what is left is net/http's and the test recorder's own bookkeeping.
// The same request made 166 allocations through encoding/json.
func TestInferWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates and drops pooled buffers; alloc gate runs in the non-race suite")
	}
	s := testServer(t, Config{})
	body := inferBody(t, 20, 8).Bytes()
	do := func() {
		rec := httptest.NewRecorder()
		s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	for i := 0; i < 4; i++ {
		do()
	}
	if allocs := testing.AllocsPerRun(50, do); allocs > 40 {
		t.Fatalf("a warm /infer allocates %v times, want at most 40", allocs)
	}
}

// BenchmarkFramesJSON prices the /infer payload both ways on the benchmark's
// request shape (20 frames × 39 features in, 20 × 39 posteriors out): the
// scanner and encoder the handler uses against encoding/json, which it used
// before and which benchmark/layers.go still times as serve.json_*_us.
func BenchmarkFramesJSON(b *testing.B) {
	body := inferBody(b, 20, 39).Bytes()
	var post [][]float32
	if err := json.Unmarshal(body, &post); err != nil {
		b.Fatal(err)
	}
	for _, row := range post {
		for i := range row {
			row[i] = 1 / (1 + row[i]*row[i]) / 39 // posterior-sized values
		}
	}
	b.Run("decode/scanner", func(b *testing.B) {
		var buf inferBuf
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := buf.decodeFrames(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var frames [][]float32
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&frames); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/append", func(b *testing.B) {
		var out []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, _ = appendPosteriors(out[:0], post)
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			json.NewEncoder(io.Discard).Encode(post)
		}
	})
}

// TestCancelledRequestReturnsTrace: a request whose client has gone gets
// its pooled trace and buffers back whether the scheduler dropped it or
// had already finished it.
func TestCancelledRequestReturnsTrace(t *testing.T) {
	s := testServer(t, Config{})
	pooled := s.pool.Get()
	s.pool.Put(pooled)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		req := httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 30, 8)).WithContext(ctx)
		s.Mux().ServeHTTP(httptest.NewRecorder(), req)
		tr := s.pool.Get()
		if tr != pooled {
			t.Fatalf("request %d: the cancelled request did not return its pooled trace", i)
		}
		s.pool.Put(tr)
	}
	// The server still scores.
	rec := httptest.NewRecorder()
	s.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", inferBody(t, 3, 8)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer after the cancellations: status %d", rec.Code)
	}
}
