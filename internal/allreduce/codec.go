package allreduce

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// A Codec compresses the float32 chunk payloads of the wire collectives.
// Encode and Decode must both be deterministic — every rank decodes the
// same payload bytes to the same float32 values, which is what keeps the
// membership bit-identical *to each other* under lossy compression: the
// all-gather phase forwards encoded payloads verbatim, so each reduced
// chunk's final bit pattern is fixed by the rank that completed it and
// every member (the completing rank included, via a decode of its own
// encoding) adopts exactly that pattern.
//
// Lossy codecs trade gradient precision for wire bytes; the parity with an
// uncompressed run is a bounded-error convergence property (see the codec
// round-trip bounds tested in codec_test.go), not bit equality. The none
// codec is the identity and keeps the PR 7 wire format byte-for-byte.
type Codec interface {
	// Name is the codec's flag/metric label ("none", "fp16", "int8").
	Name() string
	// ID is the byte stamped into every chunk frame header and exchanged
	// during the topology handshake.
	ID() uint8
	// Lossless reports whether Decode(Encode(x)) is bit-identical to x —
	// true only for the identity codec, which lets hot paths skip the
	// self-requantization pass.
	Lossless() bool
	// Encode serializes vals into a payload.
	Encode(vals []float32) []byte
	// Decode inverts Encode; the element count is implied by the payload
	// length. Malformed payloads return an error wrapping ErrBadFrame.
	Decode(payload []byte) ([]float32, error)
}

// Codec wire IDs. CodecByID resolves them on the receive path.
const (
	CodecIDNone uint8 = 0
	CodecIDFP16 uint8 = 1
	CodecIDInt8 uint8 = 2
)

// CodecNone is the identity codec: raw little-endian float32, the PR 7
// wire format.
var CodecNone Codec = noneCodec{}

// codecRegistry maps names and IDs to implementations. Populated at init
// with the three built-ins; RegisterCodec admits external ones.
var (
	codecsByName = map[string]Codec{}
	codecsByID   = map[uint8]Codec{}
)

func init() {
	RegisterCodec(noneCodec{})
	RegisterCodec(fp16Codec{})
	RegisterCodec(int8Codec{})
}

// RegisterCodec adds a codec to the registry; name and ID collisions panic
// (codec identity is a wire-protocol constant, never a runtime ambiguity).
func RegisterCodec(c Codec) {
	if _, ok := codecsByName[c.Name()]; ok {
		panic(fmt.Sprintf("allreduce: codec %q already registered", c.Name()))
	}
	if _, ok := codecsByID[c.ID()]; ok {
		panic(fmt.Sprintf("allreduce: codec id %d already registered", c.ID()))
	}
	codecsByName[c.Name()] = c
	codecsByID[c.ID()] = c
}

// CodecByName resolves a codec by its flag name; "" means none.
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return CodecNone, nil
	}
	if c, ok := codecsByName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("allreduce: unknown codec %q (have %v)", name, CodecNames())
}

// CodecByID resolves a codec by its wire ID.
func CodecByID(id uint8) (Codec, bool) {
	c, ok := codecsByID[id]
	return c, ok
}

// CodecNames lists the registered codec names, sorted — flag help text and
// the metric label set.
func CodecNames() []string {
	names := make([]string, 0, len(codecsByName))
	for n := range codecsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// noneCodec is the identity: 4 bytes per value, bit-exact.
type noneCodec struct{}

func (noneCodec) Name() string   { return "none" }
func (noneCodec) ID() uint8      { return CodecIDNone }
func (noneCodec) Lossless() bool { return true }

func (noneCodec) Encode(vals []float32) []byte { return Float32Bytes(vals) }

func (noneCodec) Decode(payload []byte) ([]float32, error) { return BytesFloat32(payload) }

// fp16Codec stores each value as an IEEE 754 binary16 (2 bytes,
// little-endian): sign, 5 exponent bits, 10 mantissa bits, round to
// nearest even. Relative round-trip error is bounded by 2⁻¹¹ in the normal
// range (|x| ∈ [2⁻¹⁴, 65504]); smaller magnitudes degrade gracefully
// through the binary16 subnormals and |x| > 65504 saturates to ±Inf.
// Halves the gradient bytes on the wire.
type fp16Codec struct{}

func (fp16Codec) Name() string   { return "fp16" }
func (fp16Codec) ID() uint8      { return CodecIDFP16 }
func (fp16Codec) Lossless() bool { return false }

func (fp16Codec) Encode(vals []float32) []byte {
	out := make([]byte, 2*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint16(out[2*i:], f16FromF32(v))
	}
	return out
}

func (fp16Codec) Decode(payload []byte) ([]float32, error) {
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("%w: fp16 payload of %d bytes", ErrBadFrame, len(payload))
	}
	out := make([]float32, len(payload)/2)
	for i := range out {
		out[i] = f16ToF32(binary.LittleEndian.Uint16(payload[2*i:]))
	}
	return out, nil
}

// f16FromF32 converts a float32 to binary16 bits with round-to-nearest-even.
func f16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	exp := int(b >> 23 & 0xff)
	man := b & 0x7fffff
	if exp == 0xff { // Inf / NaN
		if man != 0 {
			return sign | 0x7e00 // canonical quiet NaN
		}
		return sign | 0x7c00
	}
	e := exp - 127 + 15
	if e >= 31 { // too large: saturate to Inf
		return sign | 0x7c00
	}
	if e <= 0 { // binary16 subnormal (or underflow to zero)
		if e < -10 {
			return sign
		}
		man |= 0x800000 // make the leading 1 explicit
		shift := uint(14 - e)
		half := uint16(man >> shift)
		rem := man & (1<<shift - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | half
	}
	half := sign | uint16(e)<<10 | uint16(man>>13)
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
		half++ // mantissa carry may roll into the exponent: correct rounding up
	}
	return half
}

// f16ToF32 converts binary16 bits to the exactly representable float32.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 { // normalize the subnormal
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case 31:
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000) // quiet NaN
		}
		return math.Float32frombits(sign | 0x7f800000) // ±Inf
	}
	return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
}

// int8Codec linearly quantizes each chunk to one byte per value against
// the chunk's own min/max: an 8-byte header (min, scale as little-endian
// float32, scale = (max-min)/255) followed by q[i] = round((v[i]-min)/scale)
// clamped to [0, 255]. Decode is min + q·scale, so the absolute round-trip
// error is bounded by scale/2 — tight for gradient chunks, whose dynamic
// range within a layer bucket is narrow. Quarters the gradient bytes.
type int8Codec struct{}

func (int8Codec) Name() string   { return "int8" }
func (int8Codec) ID() uint8      { return CodecIDInt8 }
func (int8Codec) Lossless() bool { return false }

const int8Header = 8

func (int8Codec) Encode(vals []float32) []byte {
	out := make([]byte, int8Header+len(vals))
	if len(vals) == 0 {
		return out
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	scale := (mx - mn) / 255
	binary.LittleEndian.PutUint32(out[0:], math.Float32bits(mn))
	binary.LittleEndian.PutUint32(out[4:], math.Float32bits(scale))
	if scale == 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
		// Constant chunk (every q is 0 and decodes to min), or a chunk with
		// non-finite values — which a linear grid cannot represent; the zero
		// bytes decode to min everywhere, keeping Decode deterministic.
		return out
	}
	inv := 1 / scale
	for i, v := range vals {
		q := int(math.Round(float64((v - mn) * inv)))
		if q < 0 {
			q = 0
		} else if q > 255 {
			q = 255
		}
		out[int8Header+i] = byte(q)
	}
	return out
}

func (int8Codec) Decode(payload []byte) ([]float32, error) {
	if len(payload) < int8Header {
		return nil, fmt.Errorf("%w: int8 payload of %d bytes (min/scale header needs %d)",
			ErrBadFrame, len(payload), int8Header)
	}
	mn := math.Float32frombits(binary.LittleEndian.Uint32(payload[0:]))
	scale := math.Float32frombits(binary.LittleEndian.Uint32(payload[4:]))
	out := make([]float32, len(payload)-int8Header)
	for i := range out {
		out[i] = mn + float32(float32(payload[int8Header+i])*scale)
	}
	return out, nil
}
