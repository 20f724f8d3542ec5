package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// bloscCodec is a Blosc-like fast compressor: data is byte-shuffled by the
// element type size (grouping the k-th byte of every element together,
// which makes IEEE-754 particle data highly compressible) and then packed
// with a speed-oriented LZ stage, block by block. Like the real Blosc it
// trades ratio for throughput; BIT1 uses it so compression can keep up
// with the I/O pipeline (§III-B, Fig. 7/8).
type bloscCodec struct {
	typeSize  int
	blockSize int
	level     int
}

// newBlosc returns a Blosc-like codec for elements of typeSize bytes.
func newBlosc(typeSize int) *bloscCodec {
	if typeSize < 1 {
		typeSize = 1
	}
	return &bloscCodec{typeSize: typeSize, blockSize: 1 << 20, level: flate.BestSpeed}
}

// Name implements Codec.
func (c *bloscCodec) Name() string { return "blosc" }

const bloscMagic = "BLgo"

// maxInflate is the most DEFLATE can expand its input by: a stored length
// field larger than that times the payload is not a length.
const maxInflate = 1032

// shuffle performs the byte transposition: output groups byte lane k of
// every element contiguously. Trailing bytes that do not fill a whole
// element are appended unshuffled.
func shuffle(data []byte, typeSize int) []byte {
	n := len(data)
	if typeSize <= 1 || n < typeSize {
		out := make([]byte, n)
		copy(out, data)
		return out
	}
	elems := n / typeSize
	out := make([]byte, n)
	for lane := 0; lane < typeSize; lane++ {
		base := lane * elems
		for e := 0; e < elems; e++ {
			out[base+e] = data[e*typeSize+lane]
		}
	}
	copy(out[elems*typeSize:], data[elems*typeSize:])
	return out
}

// unshuffle inverts shuffle.
func unshuffle(data []byte, typeSize int) []byte {
	n := len(data)
	if typeSize <= 1 || n < typeSize {
		out := make([]byte, n)
		copy(out, data)
		return out
	}
	elems := n / typeSize
	out := make([]byte, n)
	for lane := 0; lane < typeSize; lane++ {
		base := lane * elems
		for e := 0; e < elems; e++ {
			out[e*typeSize+lane] = data[base+e]
		}
	}
	copy(out[elems*typeSize:], data[elems*typeSize:])
	return out
}

// Compress implements Codec.
func (c *bloscCodec) Compress(data []byte) []byte {
	var out bytes.Buffer
	out.WriteString(bloscMagic)
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(len(data)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.typeSize))
	out.Write(hdr[:])
	for off := 0; off < len(data); off += c.blockSize {
		end := off + c.blockSize
		if end > len(data) {
			end = len(data)
		}
		block := shuffle(data[off:end], c.typeSize)
		var comp bytes.Buffer
		fw, _ := flate.NewWriter(&comp, c.level)
		fw.Write(block)
		fw.Close()
		var bh [8]byte
		payload := comp.Bytes()
		stored := false
		if len(payload) >= len(block) {
			// Incompressible block: store raw, as Blosc does.
			payload = block
			stored = true
		}
		binary.LittleEndian.PutUint32(bh[:4], uint32(len(block)))
		v := uint32(len(payload))
		if stored {
			v |= 1 << 31
		}
		binary.LittleEndian.PutUint32(bh[4:], v)
		out.Write(bh[:])
		out.Write(payload)
	}
	return out.Bytes()
}

// Decompress implements Codec.
func (c *bloscCodec) Decompress(data []byte) ([]byte, error) {
	if len(data) < 16 || string(data[:4]) != bloscMagic {
		return nil, fmt.Errorf("compress: not a blosc-sim stream")
	}
	total := binary.LittleEndian.Uint64(data[4:12])
	typeSize := int(binary.LittleEndian.Uint32(data[12:16]))
	pos := 16
	// The output grows by what the blocks decode to: the header's total is
	// a claim to check, not a size to allocate.
	var out []byte
	var inflater io.ReadCloser // one for all the blocks
	var past [1]byte
	for uint64(len(out)) < total {
		if pos+8 > len(data) {
			return nil, fmt.Errorf("compress: truncated blosc-sim block header")
		}
		rawLen := int(binary.LittleEndian.Uint32(data[pos:]))
		v := binary.LittleEndian.Uint32(data[pos+4:])
		stored := v&(1<<31) != 0
		compLen := int(v &^ (1 << 31))
		pos += 8
		if pos+compLen > len(data) {
			return nil, fmt.Errorf("compress: truncated blosc-sim block")
		}
		if rawLen == 0 || rawLen > c.blockSize || rawLen > maxInflate*compLen {
			return nil, fmt.Errorf("compress: blosc-sim block of %d bytes claims to hold %d", compLen, rawLen)
		}
		block := data[pos : pos+compLen]
		if !stored {
			if src := bytes.NewReader(block); inflater == nil {
				inflater = flate.NewReader(src)
			} else {
				inflater.(flate.Resetter).Reset(src, nil)
			}
			block = make([]byte, rawLen)
			if _, err := io.ReadFull(inflater, block); err != nil {
				return nil, fmt.Errorf("compress: blosc-sim inflate: %w", err)
			}
			if n, _ := inflater.Read(past[:]); n != 0 {
				return nil, fmt.Errorf("compress: blosc-sim block inflates past its %d bytes", rawLen)
			}
		} else if len(block) != rawLen {
			return nil, fmt.Errorf("compress: blosc-sim block length mismatch")
		}
		out = append(out, unshuffle(block, typeSize)...)
		pos += compLen
	}
	if uint64(len(out)) != total {
		return nil, fmt.Errorf("compress: blosc-sim length mismatch: %d != %d", len(out), total)
	}
	return out, nil
}
