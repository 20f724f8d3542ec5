package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"picmcio/internal/xrand"
)

// picPayload builds a buffer shaped like BIT1 particle data: float64
// positions and Maxwellian velocities — smooth, correlated values that
// shuffle-based codecs exploit.
func picPayload(n int, seed uint64) []byte {
	rng := xrand.New(seed)
	buf := make([]byte, 0, n*8)
	x := 0.0
	var scratch [8]byte
	for i := 0; i < n; i++ {
		x += 0.001
		v := math.Sin(x)*3 + rng.NormFloat64()*0.01
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		buf = append(buf, scratch[:]...)
	}
	return buf
}

func codecs(t *testing.T) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range []string{"none", "blosc", "bzip2"} {
		c, err := New(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func TestRoundTripAllCodecs(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("hello world hello world hello world"),
		bytes.Repeat([]byte{0}, 10000),
		bytes.Repeat([]byte("abc"), 5000),
		picPayload(4096, 1),
	}
	for _, c := range codecs(t) {
		for i, in := range inputs {
			comp := c.Compress(in)
			got, err := c.Decompress(comp)
			if err != nil {
				t.Fatalf("%s input %d: %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, in) {
				t.Fatalf("%s input %d: round trip mismatch (%d vs %d bytes)", c.Name(), i, len(got), len(in))
			}
		}
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	for _, name := range []string{"blosc", "bzip2"} {
		c, _ := New(name, 8)
		f := func(data []byte) bool {
			got, err := c.Decompress(c.Compress(data))
			return err == nil && bytes.Equal(got, data)
		}
		cfg := &quick.Config{MaxCount: 50}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPICPayloadCompresses(t *testing.T) {
	// On raw float64 particle data the shuffling codec compresses well
	// while bzip2 barely reduces it — exactly the Table II observation
	// (bzip2+1AGGR ≈ uncompressed sizes, Blosc ≈ 11% smaller).
	payload := picPayload(1<<15, 7)
	blosc, _ := New("blosc", 8)
	bz, _ := New("bzip2", 8)
	rb, rz := Ratio(blosc, payload), Ratio(bz, payload)
	t.Logf("blosc ratio %.3f, bzip2 ratio %.3f", rb, rz)
	if rb >= 0.92 {
		t.Errorf("blosc ratio %.3f on PIC payload — should compress", rb)
	}
	if rz >= 1.05 {
		t.Errorf("bzip2 ratio %.3f — should not expand badly", rz)
	}
	if rb >= rz {
		t.Errorf("blosc (%.3f) should beat bzip2 (%.3f) on float64 PIC data", rb, rz)
	}
}

func TestBzip2BeatsBloscOnRatio(t *testing.T) {
	// bzip2 is the "high-quality data compressor" of the paper; blosc
	// trades ratio for speed. On text-like data bzip2 must win.
	payload := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog 0123456789 "), 2000)
	blosc, _ := New("blosc", 1)
	bz, _ := New("bzip2", 1)
	rb, rz := Ratio(blosc, payload), Ratio(bz, payload)
	if rz >= rb {
		t.Fatalf("bzip2 ratio %.4f not better than blosc %.4f", rz, rb)
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	f := func(data []byte, tsRaw uint8) bool {
		ts := int(tsRaw%16) + 1
		out := unshuffle(shuffle(data, ts), ts)
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleGroupsLanes(t *testing.T) {
	// Elements [1,2][1,2][1,2] with typeSize 2 shuffle to 111222.
	in := []byte{1, 2, 1, 2, 1, 2}
	want := []byte{1, 1, 1, 2, 2, 2}
	if got := shuffle(in, 2); !bytes.Equal(got, want) {
		t.Fatalf("shuffle=%v, want %v", got, want)
	}
}

func TestBWTRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		bwt, primary := bwtForward(data)
		got, err := bwtInverse(bwt, primary)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBWTKnownVector(t *testing.T) {
	// Classic example: BWT of "banana" (cyclic) is "nnbaaa" with primary 3.
	bwt, primary := bwtForward([]byte("banana"))
	got, err := bwtInverse(bwt, primary)
	if err != nil || string(got) != "banana" {
		t.Fatalf("bwt=%q primary=%d inverse=%q err=%v", bwt, primary, got, err)
	}
}

func TestMTFRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(mtfInverse(mtfForward(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFFrontLoading(t *testing.T) {
	// Runs of the same byte become runs of zeros after the first hit.
	out := mtfForward([]byte{5, 5, 5, 5})
	if out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Fatalf("mtf=%v", out)
	}
}

func TestZRLERoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		got, err := zrleDecode(zrleEncode(data), len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZRLECompactsZeroRuns(t *testing.T) {
	in := make([]byte, 10000) // all zeros
	syms := zrleEncode(in)
	if len(syms) > 20 {
		t.Fatalf("10k zero bytes encoded as %d symbols", len(syms))
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		syms := make([]uint16, len(raw))
		for i, b := range raw {
			syms[i] = uint16(b) % 300 % zrleAlphabet
		}
		lens, stream := huffEncode(syms, zrleAlphabet)
		got, err := huffDecode(lens, stream, len(syms))
		if err != nil {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	syms := []uint16{42, 42, 42}
	lens, stream := huffEncode(syms, 256)
	got, err := huffDecode(lens, stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s != 42 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestDecompressRejectsJunk(t *testing.T) {
	for _, name := range []string{"blosc", "bzip2"} {
		c, _ := New(name, 8)
		if _, err := c.Decompress([]byte("garbage data here")); err == nil {
			t.Errorf("%s accepted junk", name)
		}
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	if _, err := New("zstd", 8); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestCostModel(t *testing.T) {
	blosc := CostOf("blosc")
	bz := CostOf("bzip2")
	if blosc.CompressTime(1<<20) >= bz.CompressTime(1<<20) {
		t.Fatal("blosc should be much faster than bzip2")
	}
	none := CostOf("none")
	if none.CompressTime(1<<30) != 0 {
		t.Fatal("none codec must be free")
	}
	if bz.CompressTime(0) != 0 || bz.CompressTime(-5) != 0 {
		t.Fatal("degenerate sizes must cost zero")
	}
}

func BenchmarkBloscCompressPIC(b *testing.B) {
	payload := picPayload(1<<16, 3)
	c, _ := New("blosc", 8)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(payload)
	}
}

func BenchmarkBzip2CompressPIC(b *testing.B) {
	payload := picPayload(1<<14, 3)
	c, _ := New("bzip2", 8)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(payload)
	}
}
