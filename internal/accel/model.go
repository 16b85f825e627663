package accel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/spectrum"
)

// NoisyModel is the characterized error model of the chip: the
// measured encoding bit-flip rate and the measured per-dot-product
// noise of in-memory search. It lets dataset-scale experiments run at
// software speed while exhibiting the hardware's error statistics,
// mirroring the paper's methodology (chip characterized once in §5.2,
// algorithm-level robustness evaluated with injected errors in §5.3).
type NoisyModel struct {
	// EncodeBER is the probability each encoded output bit differs
	// from the ideal encoding.
	EncodeBER float64
	// SearchSigma is the standard deviation of additive noise on each
	// Hamming similarity score, in similarity units (bits).
	SearchSigma float64
}

// Characterize measures a configuration's error model on small probe
// workloads using the exact crossbar simulation: numProbe random peak
// lists for encoding BER and a numProbe x numProbe reference/query
// search for similarity noise.
func Characterize(cfg core.OperatingPoint, numProbe int, seed int64) (NoisyModel, error) {
	numProbe = max(numProbe, 2)
	rng := rand.New(rand.NewSource(seed))

	// Encoding BER probe. Keep the probe dimension moderate for
	// tractability; BER per bit is dimension-independent because every
	// column experiences the same analog chain.
	probeCfg := cfg
	if probeCfg.D > 1024 {
		probeCfg.D = 1024
		probeCfg.NumChunks = min(cfg.NumChunks, 64)
	}
	enc, err := NewHWEncoder(probeCfg)
	if err != nil {
		return NoisyModel{}, err
	}
	lists := make([][]spectrum.QuantizedPeak, numProbe)
	for i := range lists {
		n := 40 + rng.Intn(80)
		peaks := make([]spectrum.QuantizedPeak, n)
		for j := range peaks {
			peaks[j] = spectrum.QuantizedPeak{
				Bin:   rng.Intn(probeCfg.NumBins),
				Level: rng.Intn(probeCfg.Q),
			}
		}
		lists[i] = peaks
	}
	ber, err := enc.BitErrorRate(lists)
	if err != nil {
		return NoisyModel{}, err
	}

	// Search noise probe: per-group MAC error scales up to the full
	// dimension as sigma_D = sigma_group * sqrt(D / ActiveRows).
	searchCfg := probeCfg
	refs := make([]hdc.BinaryHV, numProbe)
	for i := range refs {
		refs[i] = hdc.RandomBinaryHV(searchCfg.D, rng)
	}
	hw, err := NewHWSearcher(searchCfg, refs)
	if err != nil {
		return NoisyModel{}, err
	}
	var se float64
	var n int
	for probe := 0; probe < numProbe; probe++ {
		q := hdc.RandomBinaryHV(searchCfg.D, rng)
		got, err := hw.DotProducts(q)
		if err != nil {
			return NoisyModel{}, err
		}
		for i, r := range refs {
			want := float64(hdc.Dot(q, r))
			d := got[i] - want
			se += d * d
			n++
		}
	}
	sigmaDotProbe := math.Sqrt(se / float64(n))
	// Dot-product noise grows with sqrt(number of row groups); rescale
	// from the probe dimension to the configured dimension. Similarity
	// = (dot + D)/2, so similarity noise is half the dot noise.
	scale := math.Sqrt(float64(cfg.D) / float64(searchCfg.D))
	return NoisyModel{
		EncodeBER:   ber,
		SearchSigma: sigmaDotProbe * scale / 2,
	}, nil
}

// String formats the model for reports.
func (m NoisyModel) String() string {
	return fmt.Sprintf("NoisyModel{encodeBER=%.4f, searchSigma=%.1f}", m.EncodeBER, m.SearchSigma)
}
