// Package npy reads and writes NumPy .npy files (format version 1.0)
// for 2-D float64 arrays. MudPy stores its recyclable distance matrices
// as .npy; FDW's matrix-recycling mechanism round-trips real files in
// this format.
//
// The format: 6-byte magic "\x93NUMPY", version bytes, a little-endian
// uint16 header length, and an ASCII Python-dict header padded with
// spaces to a 64-byte boundary and terminated with '\n', followed by
// the raw array data.
package npy

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"fdw/internal/linalg"
)

var magic = []byte{0x93, 'N', 'U', 'M', 'P', 'Y'}

// Write encodes m as an NPY v1.0 file with dtype '<f8', C order.
func Write(w io.Writer, m *linalg.Matrix) error { return WriteRows(w, m.Rows, m.Cols, m.Row) }

// WriteRows encodes a rows×cols array as an NPY v1.0 file with dtype
// '<f8', C order, taking row i from row(i), so data that is not one
// contiguous matrix is written without first being copied into one.
// The data is encoded through a buffer of at most readChunk float64s.
// Every row must hold exactly cols values.
func WriteRows(w io.Writer, rows, cols int, row func(i int) []float64) error {
	if rows < 0 || cols < 0 || (cols > 0 && rows > math.MaxInt/8/cols) {
		return fmt.Errorf("npy: cannot write shape (%d, %d)", rows, cols)
	}
	header := fmt.Sprintf("{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d), }", rows, cols)
	// Pad so that len(magic)+2(version)+2(hlen)+len(header) ≡ 0 (mod 64),
	// with a trailing newline, per the NPY spec.
	total := len(magic) + 2 + 2 + len(header) + 1
	pad := (64 - total%64) % 64
	header += strings.Repeat(" ", pad) + "\n"
	if len(header) > math.MaxUint16 {
		return fmt.Errorf("npy: header too long (%d bytes)", len(header))
	}
	head := append(append([]byte{}, magic...), 1, 0) // version 1.0
	head = binary.LittleEndian.AppendUint16(head, uint16(len(header)))
	if _, err := w.Write(append(head, header...)); err != nil {
		return err
	}
	buf := make([]byte, 0, 8*min(rows*cols, readChunk))
	// A rows×0 array holds no data, however many rows it claims.
	for i := 0; cols > 0 && i < rows; i++ {
		r := row(i)
		if len(r) != cols {
			return fmt.Errorf("npy: row %d holds %d values, want %d", i, len(r), cols)
		}
		for _, v := range r {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		_, err := w.Write(buf)
		return err
	}
	return nil
}

// Read decodes an NPY v1.0/v2.0 file containing a 1-D or 2-D '<f8'
// array in C order. 1-D arrays come back as a 1×n matrix.
func Read(r io.Reader) (*linalg.Matrix, error) {
	rows, cols, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	// The shape is a claim, not a size. An input that can report its
	// length (a file, an in-memory reader) must hold the claim before
	// it is allocated; any other fills a slice that at most doubles per
	// pass, so a short stream fails at its real length.
	n := rows * cols
	size := min(n, readChunk)
	if left, ok := remaining(r); ok {
		if left < 8*int64(n) {
			return nil, fmt.Errorf("npy: short data (want %d float64s, have %d bytes)", n, left)
		}
		size = n
	}
	data := make([]float64, size)
	for filled := 0; ; {
		if err := ReadData(r, data[filled:]); err != nil {
			return nil, fmt.Errorf("npy: short data (want %d float64s): %w", n, err)
		}
		if filled = len(data); filled == n {
			break
		}
		grown := make([]float64, min(n, 2*filled))
		copy(grown, data)
		data = grown
	}
	return &linalg.Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// ReadHeader reads the magic, version and header of an NPY v1.0/v2.0
// file from r and returns the shape of its 1-D or 2-D '<f8' C-order
// array (1-D as 1×n), leaving r at the first data byte. A shape whose
// byte count overflows an int is an error.
func ReadHeader(r io.Reader) (rows, cols int, err error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, 0, fmt.Errorf("npy: short magic: %w", err)
	}
	for i, b := range magic {
		if head[i] != b {
			return 0, 0, fmt.Errorf("npy: bad magic %q", head[:6])
		}
	}
	var headerLen int
	switch head[6] {
	case 1:
		var hl [2]byte
		if _, err := io.ReadFull(r, hl[:]); err != nil {
			return 0, 0, fmt.Errorf("npy: short header length: %w", err)
		}
		headerLen = int(binary.LittleEndian.Uint16(hl[:]))
	case 2:
		var hl [4]byte
		if _, err := io.ReadFull(r, hl[:]); err != nil {
			return 0, 0, fmt.Errorf("npy: short header length: %w", err)
		}
		headerLen = int(binary.LittleEndian.Uint32(hl[:]))
	default:
		return 0, 0, fmt.Errorf("npy: unsupported version %d.%d", head[6], head[7])
	}
	if headerLen > maxHeaderLen {
		return 0, 0, fmt.Errorf("npy: header length %d exceeds %d", headerLen, maxHeaderLen)
	}
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, fmt.Errorf("npy: short header: %w", err)
	}
	if rows, cols, err = parseHeader(string(hdr)); err != nil {
		return 0, 0, err
	}
	if cols > 0 && rows > math.MaxInt/8/cols {
		return 0, 0, fmt.Errorf("npy: shape (%d, %d) overflows", rows, cols)
	}
	return rows, cols, nil
}

// ReadData decodes len(dst) little-endian float64s from r into dst,
// readChunk at a time through one buffer. A short input returns the
// io.ReadFull error.
func ReadData(r io.Reader, dst []float64) error {
	buf := make([]byte, 8*min(len(dst), readChunk))
	for len(dst) > 0 {
		chunk := buf[:8*min(len(dst), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		d := dst[:len(chunk)/8]
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
		dst = dst[len(d):]
	}
	return nil
}

// remaining reports how many bytes a seekable r has left to read.
func remaining(r io.Reader) (int64, bool) {
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, false
	}
	cur, err1 := s.Seek(0, io.SeekCurrent)
	end, err2 := s.Seek(0, io.SeekEnd)
	_, err3 := s.Seek(cur, io.SeekStart)
	return end - cur, err1 == nil && err2 == nil && err3 == nil
}

// Read rejects headers over maxHeaderLen bytes (NumPy writes a few
// hundred). Data is encoded and decoded readChunk float64s (128 KiB) at
// a time: a buffer that small adds little per parallel reader, and
// still amortizes each read or write call over thousands of values.
const (
	maxHeaderLen = 1 << 20
	readChunk    = 1 << 14
)

// parseHeader parses the header's Python dict literal and returns the
// shape of its array. The dict must hold the keys 'descr', equal to
// '<f8', 'fortran_order', equal to False, and 'shape', a tuple of one
// or two dimensions: each exactly once, in any order, with any spacing
// a Python literal allows. Values are judged by what they are, never
// by substrings of the header.
func parseHeader(h string) (rows, cols int, err error) {
	p := headerParser{s: h}
	if !p.eat('{') {
		return 0, 0, fmt.Errorf("npy: header %q is not a dict", strings.TrimSpace(h))
	}
	seen := map[string]bool{}
	var dims []int
	for !p.eat('}') {
		key, ok := p.str()
		if !ok {
			return 0, 0, fmt.Errorf("npy: header %q has a key that is not a string", strings.TrimSpace(h))
		}
		if seen[key] {
			return 0, 0, fmt.Errorf("npy: header key '%s' repeated", key)
		}
		seen[key] = true
		if !p.eat(':') {
			return 0, 0, fmt.Errorf("npy: header key '%s' has no value", key)
		}
		switch key {
		case "descr":
			if v, ok := p.str(); !ok || v != "<f8" {
				return 0, 0, fmt.Errorf("npy: header key 'descr' is not '<f8' in %q (unsupported dtype)", strings.TrimSpace(h))
			}
		case "fortran_order":
			if p.word() != "False" {
				return 0, 0, fmt.Errorf("npy: header key 'fortran_order' is not False (fortran order not supported)")
			}
		case "shape":
			if dims, ok = p.tuple(); !ok {
				return 0, 0, fmt.Errorf("npy: header key 'shape' is not a tuple of dimensions in %q", strings.TrimSpace(h))
			}
		default:
			return 0, 0, fmt.Errorf("npy: header key '%s' not supported", key)
		}
		if !p.eat(',') {
			if !p.eat('}') {
				return 0, 0, fmt.Errorf("npy: header %q: want ',' or '}' after key '%s'", strings.TrimSpace(h), key)
			}
			break
		}
	}
	if p.skip(); p.s != "" {
		return 0, 0, fmt.Errorf("npy: header has %q after the dict", p.s)
	}
	for _, key := range []string{"descr", "fortran_order", "shape"} {
		if !seen[key] {
			return 0, 0, fmt.Errorf("npy: header key '%s' missing", key)
		}
	}
	switch len(dims) {
	case 1:
		return 1, dims[0], nil
	case 2:
		return dims[0], dims[1], nil
	default:
		return 0, 0, fmt.Errorf("npy: %d-dimensional arrays not supported", len(dims))
	}
}

// headerParser consumes the tokens of a header dict from s.
type headerParser struct{ s string }

func (p *headerParser) skip() { p.s = strings.TrimLeft(p.s, " \t\r\n") }

// eat consumes c, after any whitespace, if it comes next.
func (p *headerParser) eat(c byte) bool {
	p.skip()
	if p.s == "" || p.s[0] != c {
		return false
	}
	p.s = p.s[1:]
	return true
}

// str consumes a quoted string literal and returns its contents.
func (p *headerParser) str() (string, bool) {
	p.skip()
	if p.s == "" || (p.s[0] != '\'' && p.s[0] != '"') {
		return "", false
	}
	end := strings.IndexByte(p.s[1:], p.s[0])
	if end < 0 {
		return "", false
	}
	v := p.s[1 : 1+end]
	p.s = p.s[2+end:]
	return v, true
}

// word consumes a run of letters, digits and underscores: a name such
// as False, or an unsigned integer.
func (p *headerParser) word() string {
	p.skip()
	n := 0
	for n < len(p.s) && (p.s[n] == '_' || p.s[n] >= '0' && p.s[n] <= '9' ||
		p.s[n] >= 'a' && p.s[n] <= 'z' || p.s[n] >= 'A' && p.s[n] <= 'Z') {
		n++
	}
	w := p.s[:n]
	p.s = p.s[n:]
	return w
}

// tuple consumes a parenthesized, comma-separated list of non-negative
// integers, a trailing comma allowed.
func (p *headerParser) tuple() ([]int, bool) {
	if !p.eat('(') {
		return nil, false
	}
	dims := []int{}
	for !p.eat(')') {
		d, err := strconv.Atoi(p.word())
		if err != nil || d < 0 {
			return nil, false
		}
		dims = append(dims, d)
		if !p.eat(',') {
			return dims, p.eat(')')
		}
	}
	return dims, true
}
