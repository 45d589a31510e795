package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The /infer wire format is JSON — [][]float32 frames in, [][]float32
// posteriors out — and with the scheduler no longer holding requests back,
// encoding/json's reflection-driven decode and encode were nearly half of
// a request. This file is the same wire format without reflection: a
// scanner for exactly the documents json.Unmarshal accepts into a
// [][]float32 (same accept/reject set, same float32 bits — FuzzDecodeFrames
// holds it to that), and an encoder emitting exactly json.Encoder's bytes,
// both working out of one pooled inferBuf so a warm request allocates
// nothing for its payload.

// inferBuf is one /infer request's working set.
type inferBuf struct {
	body []byte    // the request body
	vals []float32 // every feature of every frame, back to back
	ends []int     // ends[t] = len(vals) once row t was decoded
	rows [][]float32

	post     []float32 // posterior backing array
	postRows [][]float32
	out      []byte // the encoded response
}

// maxPooledBody bounds what a recycled inferBuf keeps: one five-minute
// utterance must not pin its 16 MiB body and everything decoded from it to
// a pool slot.
const maxPooledBody = 1 << 20

// recycle returns the inferBuf to its pool, without its buffers when the
// request that grew them was unusually large.
func (s *Server) recycle(b *inferBuf) {
	if cap(b.body) > maxPooledBody || cap(b.out) > maxPooledBody {
		*b = inferBuf{}
	}
	s.bufs.Put(b)
}

// readBody reads r to EOF into the pooled body buffer, sized up front when
// the request declared a length worth believing.
func (b *inferBuf) readBody(r io.Reader, declared int64) ([]byte, error) {
	buf := b.body[:0]
	if declared <= maxPooledBody && int64(cap(buf)) <= declared {
		buf = make([]byte, 0, declared+1) // +1: room to see EOF without growing
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			b.body = buf
			if err == io.EOF {
				return buf, nil
			}
			return nil, err
		}
	}
}

// frameSyntaxError reports where a body stopped being a frame array.
func frameSyntaxError(data []byte, i int, want string) error {
	if i >= len(data) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at byte %d, want %s", data[i], i, want)
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// isNull reports a null literal at data[i:].
func isNull(data []byte, i int) bool {
	return len(data)-i >= 4 && data[i] == 'n' && data[i+1] == 'u' && data[i+2] == 'l' && data[i+3] == 'l'
}

func digits(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// scanNumber returns the end of the JSON number starting at data[i], or an
// error where the grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// breaks.
func scanNumber(data []byte, i int) (int, error) {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		i = digits(data, i)
	default:
		return 0, frameSyntaxError(data, i, "a digit")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			return 0, frameSyntaxError(data, j, "a digit after the decimal point")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			return 0, frameSyntaxError(data, j, "a digit in the exponent")
		}
		i = j
	}
	return i, nil
}

// decodeFrames parses data as json.Unmarshal would into a fresh
// [][]float32 — whitespace, null (a nil slice, a nil row, an element left
// 0), ragged rows and float32 rounding included; anything else (objects,
// strings, deeper nesting, a number past float32, trailing bytes) is an
// error. The returned rows alias the inferBuf and die with it.
func (b *inferBuf) decodeFrames(data []byte) ([][]float32, error) {
	b.vals, b.ends = b.vals[:0], b.ends[:0]
	i := skipSpace(data, 0)
	switch {
	case isNull(data, i):
		i += 4
	case i < len(data) && data[i] == '[':
		var err error
		if i, err = b.decodeArray(data, i+1, true); err != nil {
			return nil, err
		}
	default:
		return nil, frameSyntaxError(data, i, "an array of frames")
	}
	if i = skipSpace(data, i); i != len(data) {
		return nil, frameSyntaxError(data, i, "the end of the body")
	}
	rows := b.rows[:0]
	start := 0
	for _, end := range b.ends {
		rows = append(rows, b.vals[start:end:end])
		start = end
	}
	b.rows = rows
	return rows, nil
}

// decodeArray parses the elements and closing bracket of an array whose
// opening bracket is at data[i-1]: rows of the frame array when outer, the
// numbers of one row otherwise. It returns the index past the bracket.
func (b *inferBuf) decodeArray(data []byte, i int, outer bool) (int, error) {
	i = skipSpace(data, i)
	if i < len(data) && data[i] == ']' {
		return i + 1, nil
	}
	for {
		i = skipSpace(data, i)
		var err error
		switch {
		case isNull(data, i):
			i += 4
			if !outer {
				b.vals = append(b.vals, 0)
			}
		case outer:
			if i >= len(data) || data[i] != '[' {
				return 0, frameSyntaxError(data, i, "a frame (an array of numbers)")
			}
			if i, err = b.decodeArray(data, i+1, false); err != nil {
				return 0, err
			}
		default:
			end, err := scanNumber(data, i)
			if err != nil {
				return 0, err
			}
			// ParseFloat rounds to the nearest float32 exactly as
			// encoding/json does; its only error on a valid literal is range.
			v, err := strconv.ParseFloat(string(data[i:end]), 32)
			if err != nil {
				return 0, fmt.Errorf("number %s at byte %d overflows float32", data[i:end], i)
			}
			b.vals = append(b.vals, float32(v))
			i = end
		}
		if outer {
			b.ends = append(b.ends, len(b.vals))
		}
		i = skipSpace(data, i)
		switch {
		case i < len(data) && data[i] == ',':
			i++
		case i < len(data) && data[i] == ']':
			return i + 1, nil
		default:
			return 0, frameSyntaxError(data, i, "',' or ']'")
		}
	}
}

// posteriors returns T zeroed-or-stale rows of n floats over the pooled
// backing array, for the scheduler to fill.
func (b *inferBuf) posteriors(T, n int) [][]float32 {
	if cap(b.post) < T*n {
		b.post = make([]float32, T*n)
	}
	flat := b.post[:T*n]
	rows := b.postRows[:0]
	for t := 0; t < T; t++ {
		rows = append(rows, flat[t*n:(t+1)*n:(t+1)*n])
	}
	b.postRows = rows
	return rows
}

// errNotFinite is what encoding/json calls an UnsupportedValueError: JSON
// has no NaN or infinity.
var errNotFinite = errors.New("posterior is not finite")

// appendPosteriors appends exactly the bytes json.NewEncoder(w).Encode(post)
// writes: rows of ES6-formatted float32s and a trailing newline.
func appendPosteriors(dst []byte, post [][]float32) ([]byte, error) {
	dst = append(dst, '[')
	for t, row := range post {
		if t > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
				return dst, errNotFinite
			}
			dst = appendFloat32(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']', '\n'), nil
}

// appendFloat32 formats a finite v as encoding/json does: the shortest
// decimal that round-trips to the same float32, in %f form except %e with
// a trimmed exponent below 1e-6 and from 1e21 up.
func appendFloat32(dst []byte, v float32) []byte {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
	if format == 'e' {
		// e-09 → e-9, as the ES6 number-to-string conversion has it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
