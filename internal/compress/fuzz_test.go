package compress

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// fuzzCodecs are the two container formats with length fields, by the
// fuzz target's first argument.
var fuzzCodecs = [...]string{"blosc", "bzip2"}

// expansion bounds what a stream of n bytes can decode to: DEFLATE's limit
// for blosc; for bzip2, whose zero runs are exponential in the symbols
// that spell them, one largest block per block header.
func expansion(codec string, n int) int {
	if codec == "blosc" {
		return maxInflate * n
	}
	return maxBzBlock * (n/20 + 1)
}

// FuzzDecompress feeds the decoders bytes as a subfile would hold them
// (adios2's reader hands Get's chunks straight to Decompress). Whatever
// they are, Decompress returns: an error that says compress:, or bytes
// that are as many as the header says and survive Compress → Decompress —
// and what it allocated on the way is a small multiple of the input and of
// what the input decodes to, never a length field's say-so. The seeds made
// here are real streams, of the sampled PIC payload at three sizes; the
// hostile ones are testdata/fuzz/FuzzDecompress.
func FuzzDecompress(f *testing.F) {
	for which, name := range fuzzCodecs {
		c, err := New(name, 8)
		if err != nil {
			f.Fatal(err)
		}
		for _, elems := range []int{8, 512, 1 << 12} {
			f.Add(uint8(which), c.Compress(picPayload(elems, 3)))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		name := fuzzCodecs[int(which)%len(fuzzCodecs)]
		c, _ := New(name, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := c.Decompress(data)
		runtime.ReadMemStats(&after)
		decoded := len(out)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "compress:") {
				t.Errorf("%s: error %q does not say compress:", name, err)
			}
			decoded = expansion(name, len(data)) // it may have got that far
		} else if decoded > expansion(name, len(data)) {
			t.Errorf("%s: %d bytes decoded to %d", name, len(data), decoded)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+16*(len(data)+decoded)); got > limit {
			t.Errorf("%s: decoding %d bytes to %d allocated %d, want at most %d", name, len(data), len(out), got, limit)
		}
		if err != nil || len(out) > 64<<10 {
			return // (Compress is the slow half, and not the one under test)
		}
		back, err := c.Decompress(c.Compress(out))
		if err != nil || !bytes.Equal(back, out) {
			t.Errorf("%s: an accepted stream's %d bytes do not survive a round trip: %v", name, len(out), err)
		}
	})
}
