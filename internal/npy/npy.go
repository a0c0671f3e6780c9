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
func Write(w io.Writer, m *linalg.Matrix) error {
	header := fmt.Sprintf("{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d), }", m.Rows, m.Cols)
	// Pad so that len(magic)+2(version)+2(hlen)+len(header) ≡ 0 (mod 64),
	// with a trailing newline, per the NPY spec.
	total := len(magic) + 2 + 2 + len(header) + 1
	pad := (64 - total%64) % 64
	header += strings.Repeat(" ", pad) + "\n"
	if len(header) > math.MaxUint16 {
		return fmt.Errorf("npy: header too long (%d bytes)", len(header))
	}

	if _, err := w.Write(magic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{1, 0}); err != nil { // version 1.0
		return err
	}
	var hlen [2]byte
	binary.LittleEndian.PutUint16(hlen[:], uint16(len(header)))
	if _, err := w.Write(hlen[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	buf := make([]byte, 8*len(m.Data))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// Read decodes an NPY v1.0/v2.0 file containing a 1-D or 2-D '<f8'
// array in C order. 1-D arrays come back as a 1×n matrix.
func Read(r io.Reader) (*linalg.Matrix, error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("npy: short magic: %w", err)
	}
	for i, b := range magic {
		if head[i] != b {
			return nil, fmt.Errorf("npy: bad magic %q", head[:6])
		}
	}
	var headerLen int
	switch head[6] {
	case 1:
		var hl [2]byte
		if _, err := io.ReadFull(r, hl[:]); err != nil {
			return nil, fmt.Errorf("npy: short header length: %w", err)
		}
		headerLen = int(binary.LittleEndian.Uint16(hl[:]))
	case 2:
		var hl [4]byte
		if _, err := io.ReadFull(r, hl[:]); err != nil {
			return nil, fmt.Errorf("npy: short header length: %w", err)
		}
		headerLen = int(binary.LittleEndian.Uint32(hl[:]))
	default:
		return nil, fmt.Errorf("npy: unsupported version %d.%d", head[6], head[7])
	}
	if headerLen > maxHeaderLen {
		return nil, fmt.Errorf("npy: header length %d exceeds %d", headerLen, maxHeaderLen)
	}
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("npy: short header: %w", err)
	}
	rows, cols, err := parseHeader(string(hdr))
	if err != nil {
		return nil, err
	}
	if cols > 0 && rows > math.MaxInt/8/cols {
		return nil, fmt.Errorf("npy: shape (%d, %d) overflows", rows, cols)
	}
	// The shape is a claim, not a size. An input that can report its
	// length (a file, an in-memory reader) must hold the claim before
	// it is allocated; any other grows a slice that at most doubles per
	// readChunk read, so a short stream fails at its real length.
	n := rows * cols
	want := min(n, readChunk)
	if left, ok := remaining(r); ok {
		if left < 8*int64(n) {
			return nil, fmt.Errorf("npy: short data (want %d float64s, have %d bytes)", n, left)
		}
		want = n
	}
	buf := make([]byte, 8*min(n, readChunk))
	data := make([]float64, 0, want)
	for len(data) < n {
		chunk := buf[:8*min(n-len(data), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("npy: short data (want %d float64s): %w", n, err)
		}
		if len(data)+len(chunk)/8 > cap(data) {
			data = append(make([]float64, 0, min(n, 2*cap(data))), data...)
		}
		for i := 0; i < len(chunk); i += 8 {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	return &linalg.Matrix{Rows: rows, Cols: cols, Data: data}, nil
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
// hundred) and reads data readChunk float64s at a time.
const (
	maxHeaderLen = 1 << 20
	readChunk    = 1 << 16
)

// parseHeader extracts shape from the Python-dict literal header and
// validates dtype and order.
func parseHeader(h string) (rows, cols int, err error) {
	if !strings.Contains(h, "'<f8'") {
		return 0, 0, fmt.Errorf("npy: unsupported dtype in header %q (want '<f8')", strings.TrimSpace(h))
	}
	if strings.Contains(h, "'fortran_order': True") {
		return 0, 0, fmt.Errorf("npy: fortran order not supported")
	}
	i := strings.Index(h, "'shape':")
	if i < 0 {
		return 0, 0, fmt.Errorf("npy: no shape in header")
	}
	rest := h[i:]
	open := strings.Index(rest, "(")
	closeIdx := strings.Index(rest, ")")
	if open < 0 || closeIdx < open {
		return 0, 0, fmt.Errorf("npy: malformed shape in header")
	}
	parts := strings.Split(rest[open+1:closeIdx], ",")
	var dims []int
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		d, err := strconv.Atoi(p)
		if err != nil || d < 0 {
			return 0, 0, fmt.Errorf("npy: bad dimension %q", p)
		}
		dims = append(dims, d)
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
