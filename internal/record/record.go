// Package record implements the TFRecord container format the paper uses
// for offline binarization of the training data. The framing is byte-exact
// TFRecord: each record is
//
//	uint64 length (little-endian)
//	uint32 masked CRC-32C of the length bytes
//	payload bytes
//	uint32 masked CRC-32C of the payload
//
// with TensorFlow's CRC mask ((crc>>15 | crc<<17) + 0xa282ead8). The payload
// is a compact typed feature map (package record's own encoding, standing in
// for the tf.Example protobuf, which would add nothing to the experiments).
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a CRC check fails.
var ErrCorrupt = errors.New("record: CRC mismatch")

// maskCRC applies TensorFlow's CRC masking.
func maskCRC(crc uint32) uint32 {
	return ((crc >> 15) | (crc << 17)) + 0xa282ead8
}

// unmaskCRC inverts maskCRC.
func unmaskCRC(masked uint32) uint32 {
	rot := masked - 0xa282ead8
	return (rot >> 17) | (rot << 15)
}

// Writer emits TFRecord-framed payloads.
type Writer struct {
	w io.Writer
	n int // records written
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.n }

// Write frames and writes one payload.
func (w *Writer) Write(payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(payload)))
	lenCRC := crc32.Checksum(hdr[0:8], castagnoli)
	binary.LittleEndian.PutUint32(hdr[8:12], maskCRC(lenCRC))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("record: writing header: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("record: writing payload: %w", err)
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], maskCRC(crc32.Checksum(payload, castagnoli)))
	if _, err := w.w.Write(foot[:]); err != nil {
		return fmt.Errorf("record: writing footer: %w", err)
	}
	w.n++
	return nil
}

// Reader consumes TFRecord-framed payloads.
type Reader struct {
	r io.Reader
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next payload, io.EOF at a clean end of stream, or
// ErrCorrupt when a checksum fails.
func (r *Reader) Next() ([]byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("record: reading header: %w", err)
	}
	length := binary.LittleEndian.Uint64(hdr[0:8])
	wantLenCRC := unmaskCRC(binary.LittleEndian.Uint32(hdr[8:12]))
	if crc32.Checksum(hdr[0:8], castagnoli) != wantLenCRC {
		return nil, fmt.Errorf("%w: length CRC", ErrCorrupt)
	}
	if length > math.MaxInt32 {
		return nil, fmt.Errorf("record: implausible record length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("record: reading %d-byte payload: %w", length, err)
	}
	var foot [4]byte
	if _, err := io.ReadFull(r.r, foot[:]); err != nil {
		return nil, fmt.Errorf("record: reading footer: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != unmaskCRC(binary.LittleEndian.Uint32(foot[:])) {
		return nil, fmt.Errorf("%w: payload CRC", ErrCorrupt)
	}
	return payload, nil
}

// Feature kinds of the payload codec.
const (
	kindBytes   uint8 = 0
	kindFloat32 uint8 = 1
	kindInt64   uint8 = 2
)

// Features is a typed map standing in for tf.train.Example.
type Features struct {
	Bytes   map[string][]byte
	Floats  map[string][]float32
	Ints    map[string][]int64
	ordered []string // encoding order for determinism
}

// NewFeatures returns an empty feature map.
func NewFeatures() *Features {
	return &Features{
		Bytes:  map[string][]byte{},
		Floats: map[string][]float32{},
		Ints:   map[string][]int64{},
	}
}

// AddBytes registers a byte feature.
func (f *Features) AddBytes(key string, v []byte) {
	f.Bytes[key] = v
	f.ordered = append(f.ordered, key)
}

// AddFloats registers a float32 feature.
func (f *Features) AddFloats(key string, v []float32) {
	f.Floats[key] = v
	f.ordered = append(f.ordered, key)
}

// AddInts registers an int64 feature.
func (f *Features) AddInts(key string, v []int64) {
	f.Ints[key] = v
	f.ordered = append(f.ordered, key)
}

// Marshal encodes the feature map.
func (f *Features) Marshal() []byte {
	var buf []byte
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(f.ordered)))
	for _, key := range f.ordered {
		buf = le.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		switch {
		case f.Bytes[key] != nil:
			buf = append(buf, kindBytes)
			buf = le.AppendUint64(buf, uint64(len(f.Bytes[key])))
			buf = append(buf, f.Bytes[key]...)
		case f.Floats[key] != nil:
			buf = append(buf, kindFloat32)
			buf = le.AppendUint64(buf, uint64(len(f.Floats[key])))
			for _, v := range f.Floats[key] {
				buf = le.AppendUint32(buf, math.Float32bits(v))
			}
		case f.Ints[key] != nil:
			buf = append(buf, kindInt64)
			buf = le.AppendUint64(buf, uint64(len(f.Ints[key])))
			for _, v := range f.Ints[key] {
				buf = le.AppendUint64(buf, uint64(v))
			}
		default:
			// Key registered but value removed: encode as empty bytes.
			buf = append(buf, kindBytes)
			buf = le.AppendUint64(buf, 0)
		}
	}
	return buf
}

// Unmarshal decodes a feature map produced by Marshal. Every length in the
// payload is checked against the bytes that remain before it is used, so
// malformed input yields an error, never a panic.
func Unmarshal(data []byte) (*Features, error) {
	f := NewFeatures()
	le := binary.LittleEndian
	pos := 0
	// need fails unless n elements of size bytes remain; dividing the
	// remainder, rather than multiplying n, keeps any stored n from
	// overflowing.
	need := func(n, size uint64) error {
		if n > uint64(len(data)-pos)/size {
			return fmt.Errorf("record: truncated feature map at offset %d", pos)
		}
		return nil
	}
	if err := need(4, 1); err != nil {
		return nil, err
	}
	count := le.Uint32(data[pos:])
	pos += 4
	for i := uint32(0); i < count; i++ {
		if err := need(4, 1); err != nil {
			return nil, err
		}
		klen := uint64(le.Uint32(data[pos:]))
		pos += 4
		if err := need(klen+1+8, 1); err != nil {
			return nil, err
		}
		key := string(data[pos : pos+int(klen)])
		pos += int(klen)
		kind := data[pos]
		pos++
		n := le.Uint64(data[pos:])
		pos += 8
		switch kind {
		case kindBytes:
			if err := need(n, 1); err != nil {
				return nil, err
			}
			f.AddBytes(key, append([]byte(nil), data[pos:pos+int(n)]...))
			pos += int(n)
		case kindFloat32:
			if err := need(n, 4); err != nil {
				return nil, err
			}
			vals := make([]float32, n)
			for j := range vals {
				vals[j] = math.Float32frombits(le.Uint32(data[pos+j*4:]))
			}
			f.AddFloats(key, vals)
			pos += len(vals) * 4
		case kindInt64:
			if err := need(n, 8); err != nil {
				return nil, err
			}
			vals := make([]int64, n)
			for j := range vals {
				vals[j] = int64(le.Uint64(data[pos+j*8:]))
			}
			f.AddInts(key, vals)
			pos += len(vals) * 8
		default:
			return nil, fmt.Errorf("record: unknown feature kind %d for %q", kind, key)
		}
	}
	return f, nil
}
