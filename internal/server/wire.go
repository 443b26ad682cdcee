// The binary wire codec: dense vectors and shard bands cross HTTP as raw
// little-endian frames, content-negotiated beside the JSON tier. A frame
// is its payload and nothing else — no magic, no length prefix, no
// checksum: the media type names the layout, Content-Length names the
// size, and TCP already checksums the bytes. See DESIGN.md "Wire format".
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"sync"
	"unsafe"

	spmv "repro"
)

const (
	// mediaF64LE is a dense vector: exactly 8·n bytes, element i the
	// little-endian IEEE-754 bits of v[i].
	mediaF64LE = "application/x-spmv-f64le"
	// mediaBand is one sparse matrix (a shard band) in row-grouped form:
	// a header of three little-endian uint64 (rows, cols, nnz), then
	// rows+1 uint64 row pointers, nnz uint32 column indices, and nnz
	// float64 values.
	mediaBand = "application/x-spmv-band"
	mediaJSON = "application/json"
)

// Body codecs, by the short names the byte counters label them with.
const (
	codecJSON  = "json"
	codecF64LE = "f64le"
	codecBand  = "band"
	codecOther = "other"
)

// codecByMedia maps media types to codecs. A missing Content-Type and
// curl -d's form-urlencoded default are the JSON tier, as they were before
// frames existed.
var codecByMedia = map[string]string{
	"":                                  codecJSON,
	mediaJSON:                           codecJSON,
	"application/x-www-form-urlencoded": codecJSON,
	mediaF64LE:                          codecF64LE,
	mediaBand:                           codecBand,
}

// codecOf names the codec a Content-Type header selects, ignoring case
// and parameters (charset). The exact strings this repo's own clients
// send are matched without parsing.
func codecOf(contentType string) string {
	if c, ok := codecByMedia[contentType]; ok {
		return c
	}
	mt, _, _ := mime.ParseMediaType(contentType)
	if c, ok := codecByMedia[mt]; ok && mt != "" {
		return c
	}
	return codecOther
}

// appendF64LE appends v's vector frame to b.
func appendF64LE(b []byte, v []float64) []byte {
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// nativeLE reports whether a float64's memory is its frame's bytes, so
// frames need no codec; a variable so tests can run the codec anyway.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// vecBytes is v's vector frame: where nativeLE, v's own memory (the
// package's one unsafe view: 8·len(v) bytes of pointer-free data that
// live as long as v), elsewhere an encoded copy to be read with setVec.
func vecBytes(v []float64) []byte {
	if !nativeLE {
		return appendF64LE(make([]byte, 0, 8*len(v)), v)
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// setVec finishes filling v from b = vecBytes(v): a no-op where nativeLE.
func setVec(v []float64, b []byte) {
	for i := 0; !nativeLE && i < len(v); i++ {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// xPool recycles the x vectors mul frames are read into; one goes back
// when mulOpts returns (DESIGN.md, "Wire format").
var xPool sync.Pool // of *[]float64

// getVec returns an n-long vector of arbitrary contents.
func getVec(n int) []float64 {
	if p, _ := xPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

// readFrame reads a request body of exactly Content-Length bytes n under
// the server's body cap with a single io.ReadFull into dst(n), so a frame
// is never grown or copied while it arrives, and returns it. The status is
// the HTTP code a non-nil error should answer with.
func (s *Server) readFrame(r *http.Request, dst func(n int) []byte) ([]byte, int, error) {
	n := r.ContentLength
	switch {
	case n < 0:
		return nil, http.StatusBadRequest, fmt.Errorf("frame requests must declare Content-Length")
	case n > s.cfg.MaxBodyBytes:
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes)
	}
	buf := dst(int(n))
	if _, err := io.ReadFull(r.Body, buf); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %d-byte frame declared: %w", n, err)
	}
	var extra [1]byte
	if k, _ := r.Body.Read(extra[:]); k > 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: longer than the %d-byte frame declared", n)
	}
	return buf, 0, nil
}

// bandHeaderBytes is the fixed prefix of a band frame: rows, cols, nnz.
const bandHeaderBytes = 3 * 8

// encodeBand serializes m as a band frame. Entries are grouped by row with
// each row's entries kept in insertion order — the only order the CSR
// compile's stable sort depends on — so a member compiling the decoded
// band reproduces the coordinator's copy bit for bit, duplicates included.
// A matrix whose entries are already row-major round-trips entry for entry.
func encodeBand(m *spmv.Matrix) []byte {
	rows, cols := m.Dims()
	nnz := int(m.NNZ())
	next := make([]int, rows+1) // next[i+1] counts row i, then becomes its write cursor
	m.Entries(func(i, _ int, _ float64) { next[i+1]++ })
	for i := 0; i < rows; i++ {
		next[i+1] += next[i]
	}
	ptrOff := bandHeaderBytes
	colOff := ptrOff + 8*(rows+1)
	valOff := colOff + 4*nnz
	b := make([]byte, valOff+8*nnz)
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(rows))
	le.PutUint64(b[8:], uint64(cols))
	le.PutUint64(b[16:], uint64(nnz))
	for i, p := range next {
		le.PutUint64(b[ptrOff+8*i:], uint64(p))
	}
	m.Entries(func(i, j int, v float64) {
		k := next[i]
		next[i]++
		le.PutUint32(b[colOff+4*k:], uint32(j))
		le.PutUint64(b[valOff+8*k:], math.Float64bits(v))
	})
	return b
}

// decodeBand parses and validates a band frame: the byte length must be
// exactly what the header's dimensions imply, the row pointers must start
// at 0, never decrease and end at nnz, and every column must be in range.
// A truncated or corrupted frame is an error, never a partial matrix.
func decodeBand(b []byte) (*spmv.Matrix, error) {
	if len(b) < bandHeaderBytes {
		return nil, fmt.Errorf("band frame: %d bytes is shorter than the %d-byte header", len(b), bandHeaderBytes)
	}
	le := binary.LittleEndian
	rows, cols, nnz := le.Uint64(b[0:]), le.Uint64(b[8:]), le.Uint64(b[16:])
	// Bounding each dimension by the frame's own length first keeps the
	// size arithmetic below from overflowing on a hostile header.
	if rows == 0 || cols == 0 || rows > math.MaxInt32 || cols > math.MaxInt32 ||
		rows > uint64(len(b))/8 || nnz > uint64(len(b))/12 {
		return nil, fmt.Errorf("band frame: header %dx%d with %d nonzeros does not fit a %d-byte frame", rows, cols, nnz, len(b))
	}
	ptrOff := uint64(bandHeaderBytes)
	colOff := ptrOff + 8*(rows+1)
	valOff := colOff + 4*nnz
	if want := valOff + 8*nnz; uint64(len(b)) != want {
		return nil, fmt.Errorf("band frame: %d bytes, want %d for %dx%d with %d nonzeros", len(b), want, rows, cols, nnz)
	}
	m := spmv.NewMatrix(int(rows), int(cols))
	if first := le.Uint64(b[ptrOff:]); first != 0 {
		return nil, fmt.Errorf("band frame: row pointers start at %d, want 0", first)
	}
	k := uint64(0)
	for i := uint64(0); i < rows; i++ {
		end := le.Uint64(b[ptrOff+8*(i+1):])
		if end < k || end > nnz {
			return nil, fmt.Errorf("band frame: row %d ends at %d, outside [%d, %d]", i, end, k, nnz)
		}
		for ; k < end; k++ {
			j := le.Uint32(b[colOff+4*k:])
			v := math.Float64frombits(le.Uint64(b[valOff+8*k:]))
			if err := m.Set(int(i), int(j), v); err != nil {
				return nil, fmt.Errorf("band frame: %w", err)
			}
		}
	}
	if k != nnz {
		return nil, fmt.Errorf("band frame: row pointers end at %d, want %d", k, nnz)
	}
	return m, nil
}
