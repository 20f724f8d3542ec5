// Package compress provides the data-reduction operators BIT1's openPMD
// integration enables on its ADIOS2 backend: a Blosc-like shuffling fast
// codec and a bzip2-style BWT codec, plus a registry and the throughput
// cost model used to charge simulated compute time for (de)compression.
//
// Both codecs are real, lossless implementations verified by round-trip
// and property tests; compression *ratios* measured on actual PIC payloads
// feed the storage-efficiency results (Table II), while the cost model
// feeds the timing results (Figs. 7–9).
package compress

import (
	"fmt"

	"picmcio/internal/sim"
)

// Codec is a lossless block compressor.
type Codec interface {
	// Name reports the registry name ("blosc", "bzip2", "none").
	Name() string
	// Compress returns the encoded form of data.
	Compress(data []byte) []byte
	// Decompress inverts Compress.
	Decompress(data []byte) ([]byte, error)
}

// noneCodec passes data through unchanged.
type noneCodec struct{}

func (noneCodec) Name() string                           { return "none" }
func (noneCodec) Compress(data []byte) []byte            { return data }
func (noneCodec) Decompress(data []byte) ([]byte, error) { return data, nil }

// New returns a codec by name. typeSize informs shuffling codecs about the
// element width (8 for float64 particle data).
func New(name string, typeSize int) (Codec, error) {
	switch name {
	case "", "none":
		return noneCodec{}, nil
	case "blosc":
		return newBlosc(typeSize), nil
	case "bzip2":
		return newBzip2(9), nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// CostModel holds the per-codec compute-throughput figures used to charge
// virtual time: bytes/second of input processed. They reflect the speed
// *classes* of the real libraries (Blosc ≈ memory bandwidth, bzip2 ≈ tens
// of MB/s).
type CostModel struct {
	CompressRate float64 // input bytes per second
}

// CostOf returns the cost model for a codec name.
func CostOf(name string) CostModel {
	switch name {
	case "blosc":
		return CostModel{CompressRate: 1.8e9}
	case "bzip2":
		return CostModel{CompressRate: 18e6}
	default: // none
		return CostModel{}
	}
}

// CompressTime reports the virtual time to compress n input bytes.
func (m CostModel) CompressTime(n int64) sim.Duration {
	if m.CompressRate <= 0 || n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / m.CompressRate)
}

// Ratio measures the compression ratio (compressed/original) of codec on
// a sample payload; 1.0 for empty input.
func Ratio(c Codec, sample []byte) float64 {
	if len(sample) == 0 {
		return 1
	}
	return float64(len(c.Compress(sample))) / float64(len(sample))
}
