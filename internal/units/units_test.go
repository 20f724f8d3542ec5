package units

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{13 * KiB, "13KiB"},
		{1945 * KiB, "1.9MiB"},
		{81 * MiB, "81MiB"},
		{326 * MiB, "326MiB"},
		{GiB + GiB/10, "1.1GiB"},
		{-4 * KiB, "-4.0KiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d)=%q, want %q", c.in, got, c.want)
		}
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(0.41 * float64(GiB)); got != "0.41 GiB/s" {
		t.Errorf("got %q", got)
	}
	if got := Throughput(15.80 * float64(GiB)); got != "15.80 GiB/s" {
		t.Errorf("got %q", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"16M", 16 * MiB},
		{"16MiB", 16 * MiB},
		{"1MB", 1 * MiB},
		{"4k", 4 * KiB},
		{"512", 512},
		{"2G", 2 * GiB},
		{"1.5M", MiB + MiB/2},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q)=%d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range parseBytesBad {
		if n, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", bad, n)
		}
	}
	// The largest sizes an int64 holds are accepted, and what float64
	// rounds up to 2⁶³ is not.
	if n, err := ParseBytes("8191P"); err != nil || n != 8191*PiB {
		t.Errorf("ParseBytes(8191P) = %d, %v", n, err)
	}
	if n, err := ParseBytes("-0"); err != nil || n != 0 {
		t.Errorf("ParseBytes(-0) = %d, %v", n, err)
	}
}

// parseBytesBad are sizes ParseBytes must refuse: empty, junk, and what
// no int64 byte count can be.
var parseBytesBad = []string{
	"", "xMiB", "-4K", "-1", "-0.5M", "NaN", "nan", "Inf", "+Inf", "-Inf", "infK",
	"1e30P", "8192P", "9223372036854775807", "9223372036854775808", "1e19",
}

// FuzzParseBytes: ParseBytes never panics, never accepts a negative
// count, and reads every decimal integer a float64 holds exactly (up to
// 2⁵³) back as itself.
func FuzzParseBytes(f *testing.F) {
	for i, s := range append([]string{"16M", "16MiB", "1MB", "4k", "512", "1.5M"}, parseBytesBad...) {
		f.Add(s, uint64(i)<<50)
	}
	f.Add("", uint64(1)<<53)
	f.Fuzz(func(t *testing.T, s string, u uint64) {
		if n, err := ParseBytes(s); err == nil && n < 0 {
			t.Fatalf("ParseBytes(%q) = %d", s, n)
		}
		n := int64(u % (1<<53 + 1))
		if got, err := ParseBytes(strconv.FormatInt(n, 10)); err != nil || got != n {
			t.Fatalf("ParseBytes(%d) = %d, %v", n, got, err)
		}
	})
}

func TestSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0s"},
		{0.0000005, "0.5µs"},
		{0.0089, "8.900ms"},
		{1.043, "1.043s"},
		{17.868, "17.868s"},
		{123.4, "123.4s"},
	}
	for _, c := range cases {
		if got := Seconds(c.in); got != c.want {
			t.Errorf("Seconds(%v)=%q, want %q", c.in, got, c.want)
		}
	}
}

// Property: ParseBytes inverts simple integer MiB renderings.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int64(nRaw%2048) + 1
		got, err := ParseBytes(Bytes(n * MiB))
		if err != nil {
			return false
		}
		// Bytes may round to one decimal; accept 5% tolerance.
		diff := got - n*MiB
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= 0.05*float64(n*MiB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
