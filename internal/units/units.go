// Package units provides byte-size, throughput and time formatting and
// parsing helpers used throughout the experiment harness and reports.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Binary size constants.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
	PiB int64 = 1 << 50
)

// Bytes renders n as a compact human-readable binary size, matching the
// style the paper's tables use ("13KiB", "1.9MiB", "1.1GiB").
func Bytes(n int64) string {
	f := func(v float64, unit string) string {
		if v >= 100 {
			return fmt.Sprintf("%.0f%s", v, unit)
		}
		if v >= 10 {
			return fmt.Sprintf("%.0f%s", v, unit)
		}
		return fmt.Sprintf("%.1f%s", v, unit)
	}
	switch {
	case n < 0:
		return "-" + Bytes(-n)
	case n >= PiB:
		return f(float64(n)/float64(PiB), "PiB")
	case n >= TiB:
		return f(float64(n)/float64(TiB), "TiB")
	case n >= GiB:
		return f(float64(n)/float64(GiB), "GiB")
	case n >= MiB:
		return f(float64(n)/float64(MiB), "MiB")
	case n >= KiB:
		return f(float64(n)/float64(KiB), "KiB")
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Throughput renders a rate in bytes/second as GiB/s with two decimals,
// the unit used by every figure in the paper.
func Throughput(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f GiB/s", bytesPerSec/float64(GiB))
}

// GiBps converts bytes/second to GiB/s.
func GiBps(bytesPerSec float64) float64 { return bytesPerSec / float64(GiB) }

// Seconds renders a duration in seconds with sensible precision.
func Seconds(s float64) string {
	switch {
	case s == 0:
		return "0s"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.3fms", s*1e3)
	case s < 100:
		return fmt.Sprintf("%.3fs", s)
	default:
		return fmt.Sprintf("%.1fs", s)
	}
}

// ParseBytes parses strings like "16M", "16MiB", "1MB", "4k", "512" into a
// byte count. Both SI-style (decimal ignored; treated binary like lfs) and
// IEC suffixes map to binary multiples, matching `lfs setstripe -S 16M`.
// A size that is negative, not a number or past math.MaxInt64 is an error.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	upper := strings.ToUpper(t)
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{
		{"PIB", PiB}, {"TIB", TiB}, {"GIB", GiB}, {"MIB", MiB}, {"KIB", KiB},
		{"PB", PiB}, {"TB", TiB}, {"GB", GiB}, {"MB", MiB}, {"KB", KiB},
		{"P", PiB}, {"T", TiB}, {"G", GiB}, {"M", MiB}, {"K", KiB}, {"B", 1},
	} {
		if strings.HasSuffix(upper, suf.s) {
			mult = suf.m
			upper = strings.TrimSuffix(upper, suf.s)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(upper), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %v", s, err)
	}
	// float64(math.MaxInt64) is 2⁶³, one past what an int64 holds.
	n := v * float64(mult)
	if math.IsNaN(n) || n < 0 || n >= math.MaxInt64 {
		return 0, fmt.Errorf("units: size %q is not a byte count from 0 to %d", s, int64(math.MaxInt64))
	}
	return int64(n), nil
}
