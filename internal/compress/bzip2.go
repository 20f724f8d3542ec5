package compress

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// bzip2Codec is a bzip2-style block compressor: per block it applies the
// Burrows-Wheeler transform, move-to-front coding, zero-run-length coding
// and canonical Huffman entropy coding — the same pipeline as bzip2,
// in a private container format (the paper only relies on bzip2's ratio
// and speed class, not on its bitstream).
type bzip2Codec struct {
	blockSize int
}

// newBzip2 returns the codec with bzip2's default 900 KiB blocks scaled by
// level (1..9 → 100 KiB .. 900 KiB).
func newBzip2(level int) *bzip2Codec {
	if level < 1 {
		level = 1
	}
	if level > 9 {
		level = 9
	}
	return &bzip2Codec{blockSize: level * 100_000}
}

// Name implements Codec.
func (c *bzip2Codec) Name() string { return "bzip2" }

const bzMagic = "BZgo"

// maxBzBlock is the largest block newBzip2 cuts, at level 9.
const maxBzBlock = 9 * 100_000

// Compress implements Codec.
func (c *bzip2Codec) Compress(data []byte) []byte {
	out := make([]byte, 0, len(data)/2+64)
	out = append(out, bzMagic...)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(data)))
	out = append(out, hdr[:]...)
	for off := 0; off < len(data); off += c.blockSize {
		end := off + c.blockSize
		if end > len(data) {
			end = len(data)
		}
		out = appendBlock(out, data[off:end])
	}
	if len(data) == 0 {
		return out
	}
	return out
}

func appendBlock(out []byte, block []byte) []byte {
	bwt, primary := bwtForward(block)
	mtf := mtfForward(bwt)
	syms := zrleEncode(mtf)
	lens, stream := huffEncode(syms, zrleAlphabet)
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(block)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(primary))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(syms)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(stream)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(lens)))
	out = append(out, hdr[:]...)
	out = append(out, lens...)
	out = append(out, stream...)
	return out
}

// Decompress implements Codec.
func (c *bzip2Codec) Decompress(data []byte) ([]byte, error) {
	if len(data) < len(bzMagic)+8 || string(data[:4]) != bzMagic {
		return nil, fmt.Errorf("compress: not a bzip2-sim stream")
	}
	total := binary.LittleEndian.Uint64(data[4:12])
	pos := 12
	// The output grows by what the blocks decode to: the header's total is
	// a claim to check, not a size to allocate.
	var out []byte
	for uint64(len(out)) < total {
		if pos+20 > len(data) {
			return nil, fmt.Errorf("compress: truncated bzip2-sim block header")
		}
		rawLen := int(binary.LittleEndian.Uint32(data[pos:]))
		primary := int(binary.LittleEndian.Uint32(data[pos+4:]))
		nsyms := int(binary.LittleEndian.Uint32(data[pos+8:]))
		streamLen := int(binary.LittleEndian.Uint32(data[pos+12:]))
		lensLen := int(binary.LittleEndian.Uint32(data[pos+16:]))
		pos += 20
		if pos+lensLen+streamLen > len(data) {
			return nil, fmt.Errorf("compress: truncated bzip2-sim block")
		}
		// A symbol takes a bit at least, and a block is no larger than the
		// largest Compress cuts (zero runs make its length exponential in
		// the symbols that spell it, so the stream's size bounds nothing).
		if rawLen == 0 || rawLen > maxBzBlock || nsyms > 8*streamLen {
			return nil, fmt.Errorf("compress: bzip2-sim block of %d bytes claims %d symbols and %d bytes", streamLen, nsyms, rawLen)
		}
		lens := data[pos : pos+lensLen]
		pos += lensLen
		stream := data[pos : pos+streamLen]
		pos += streamLen
		syms, err := huffDecode(lens, stream, nsyms)
		if err != nil {
			return nil, err
		}
		mtf, err := zrleDecode(syms, rawLen)
		if err != nil {
			return nil, err
		}
		bwt := mtfInverse(mtf)
		block, err := bwtInverse(bwt, primary)
		if err != nil {
			return nil, err
		}
		out = append(out, block...)
	}
	if uint64(len(out)) != total {
		return nil, fmt.Errorf("compress: bzip2-sim length mismatch: %d != %d", len(out), total)
	}
	return out, nil
}

// bwtForward computes the Burrows-Wheeler transform of block, returning
// the transformed bytes and the index of the original rotation. Rotation
// order is computed by prefix doubling in O(n log² n).
func bwtForward(block []byte) ([]byte, int) {
	n := len(block)
	if n == 0 {
		return nil, 0
	}
	rank := make([]int, n)
	tmp := make([]int, n)
	sa := make([]int, n)
	for i := 0; i < n; i++ {
		sa[i] = i
		rank[i] = int(block[i])
	}
	// Prefix doubling; k is capped at n because rotations of a periodic
	// block can be genuinely identical (e.g. an all-zero block), in which
	// case ranks never become distinct and any tie order is valid.
	for k := 1; k < n; k <<= 1 {
		key := func(i int) (int, int) { return rank[i], rank[(i+k)%n] }
		sort.Slice(sa, func(a, b int) bool {
			ra, rb := key(sa[a])
			sa2a, sa2b := key(sa[b])
			if ra != sa2a {
				return ra < sa2a
			}
			return rb < sa2b
		})
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			pa, pb := key(sa[i-1])
			ca, cb := key(sa[i])
			tmp[sa[i]] = tmp[sa[i-1]]
			if pa != ca || pb != cb {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
		if rank[sa[n-1]] == n-1 {
			break
		}
	}
	out := make([]byte, n)
	primary := 0
	for i, rot := range sa {
		out[i] = block[(rot+n-1)%n]
		if rot == 0 {
			primary = i
		}
	}
	return out, primary
}

// bwtInverse inverts the Burrows-Wheeler transform.
func bwtInverse(bwt []byte, primary int) ([]byte, error) {
	n := len(bwt)
	if n == 0 {
		return nil, nil
	}
	if primary < 0 || primary >= n {
		return nil, fmt.Errorf("compress: bad BWT primary index %d", primary)
	}
	// Standard LF-mapping reconstruction.
	var counts [256]int
	for _, b := range bwt {
		counts[b]++
	}
	var starts [256]int
	sum := 0
	for v := 0; v < 256; v++ {
		starts[v] = sum
		sum += counts[v]
	}
	next := make([]int, n)
	var seen [256]int
	for i, b := range bwt {
		next[starts[b]+seen[b]] = i
		seen[b]++
	}
	out := make([]byte, n)
	p := next[primary]
	for i := 0; i < n; i++ {
		out[i] = bwt[p]
		p = next[p]
	}
	return out, nil
}

// mtfForward applies move-to-front coding.
func mtfForward(data []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, b := range data {
		var j int
		for table[j] != b {
			j++
		}
		out[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = b
	}
	return out
}

// mtfInverse inverts move-to-front coding.
func mtfInverse(data []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, idx := range data {
		b := table[idx]
		out[i] = b
		copy(table[1:int(idx)+1], table[:idx])
		table[0] = b
	}
	return out
}

// Zero-run-length symbol space: 0..255 are literal byte values shifted by
// the run symbols; symbols 256.. encode runs of zeros in a bijective
// base-2 code (RUNA/RUNB), as bzip2 does.
const (
	symRunA      = 256
	symRunB      = 257
	zrleAlphabet = 258
)

// zrleEncode converts MTF output into the RUNA/RUNB + literal symbol
// stream. Literal value v (1..255) maps to symbol v.
func zrleEncode(mtf []byte) []uint16 {
	var out []uint16
	emitRun := func(run int) {
		// Bijective base 2: digits are 1 (RUNA) and 2 (RUNB).
		for run > 0 {
			if run&1 == 1 {
				out = append(out, symRunA)
				run = (run - 1) / 2
			} else {
				out = append(out, symRunB)
				run = (run - 2) / 2
			}
		}
	}
	run := 0
	for _, b := range mtf {
		if b == 0 {
			run++
			continue
		}
		emitRun(run)
		run = 0
		out = append(out, uint16(b))
	}
	emitRun(run)
	return out
}

// zrleDecode inverts zrleEncode; n is the expected output length.
func zrleDecode(syms []uint16, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	i := 0
	for i < len(syms) {
		s := syms[i]
		if s == symRunA || s == symRunB {
			run, place := 0, 1
			for i < len(syms) && (syms[i] == symRunA || syms[i] == symRunB) {
				if syms[i] == symRunA {
					run += place
				} else {
					run += 2 * place
				}
				place *= 2
				i++
			}
			if run > n-len(out) {
				return nil, fmt.Errorf("compress: zrle run of %d zeros past the block's %d bytes", run, n)
			}
			for j := 0; j < run; j++ {
				out = append(out, 0)
			}
			continue
		}
		if s > 255 {
			return nil, fmt.Errorf("compress: bad zrle symbol %d", s)
		}
		out = append(out, byte(s))
		i++
	}
	if len(out) != n {
		return nil, fmt.Errorf("compress: zrle length mismatch: %d != %d", len(out), n)
	}
	return out, nil
}
