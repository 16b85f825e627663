package hdc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spectrum"
)

func testEncoder(t *testing.T, d, bins, precision int) *Encoder {
	t.Helper()
	ids := NewItemMemory(d, bins, precision, 100)
	ls := NewFlipLevelSet(d, 16, 200)
	e, err := NewEncoder(ids, ls)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEncoderDimensionMismatch(t *testing.T) {
	ids := NewItemMemory(128, 10, 1, 1)
	ls := NewFlipLevelSet(256, 16, 2)
	if _, err := NewEncoder(ids, ls); err == nil {
		t.Error("dimension mismatch not rejected")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := testEncoder(t, 1024, 100, 3)
	peaks := []spectrum.QuantizedPeak{{Bin: 3, Level: 5}, {Bin: 50, Level: 15}, {Bin: 99, Level: 0}}
	a, err := e.Encode(peaks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Encode(peaks)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Words, b.Words) {
		t.Error("encoding not deterministic")
	}
}

func TestEncodeRejectsBadBin(t *testing.T) {
	e := testEncoder(t, 256, 10, 1)
	if _, err := e.Encode([]spectrum.QuantizedPeak{{Bin: 10, Level: 0}}); err == nil {
		t.Error("out-of-range bin accepted")
	}
	if _, err := e.Encode([]spectrum.QuantizedPeak{{Bin: -1, Level: 0}}); err == nil {
		t.Error("negative bin accepted")
	}
}

func TestEncodeClampsLevels(t *testing.T) {
	e := testEncoder(t, 256, 10, 1)
	a, err := e.Encode([]spectrum.QuantizedPeak{{Bin: 2, Level: 999}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Encode([]spectrum.QuantizedPeak{{Bin: 2, Level: 15}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Words, b.Words) {
		t.Error("overflow level not clamped to Q-1")
	}
}

func TestAccumulateMatchesNaive(t *testing.T) {
	d := 512
	e := testEncoder(t, d, 40, 3)
	rng := rand.New(rand.NewSource(3))
	peaks := make([]spectrum.QuantizedPeak, 30)
	for i := range peaks {
		peaks[i] = spectrum.QuantizedPeak{Bin: rng.Intn(40), Level: rng.Intn(16)}
	}
	acc := make([]int32, d)
	if err := e.accumulate(peaks, acc); err != nil {
		t.Fatal(err)
	}
	// Naive recomputation from the ID values the seed generator draws,
	// not from the item memory's resident planes.
	ids := seedIDs(d, 40, 3, 100)
	want := make([]int32, d)
	for _, p := range peaks {
		lv := e.Levels.Level(p.Level)
		for i := 0; i < d; i++ {
			want[i] += int32(ids[p.Bin].Vals[i]) * int32(lv.Bit(i))
		}
	}
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("accumulator mismatch at dim %d: %d vs %d", i, acc[i], want[i])
		}
	}
}

func TestAccumulateBadLength(t *testing.T) {
	e := testEncoder(t, 256, 10, 1)
	if err := e.accumulate(nil, make([]int32, 10)); err == nil {
		t.Error("wrong accumulator length accepted")
	}
}

func TestSimilarSpectraEncodeSimilarly(t *testing.T) {
	// The whole point of ID-Level encoding: spectra sharing peaks have
	// much higher similarity than unrelated spectra.
	d := 4096
	e := testEncoder(t, d, 1000, 3)
	rng := rand.New(rand.NewSource(4))
	base := make([]spectrum.QuantizedPeak, 60)
	for i := range base {
		base[i] = spectrum.QuantizedPeak{Bin: rng.Intn(1000), Level: rng.Intn(16)}
	}
	// Near-duplicate: perturb 10% of peaks.
	near := make([]spectrum.QuantizedPeak, len(base))
	copy(near, base)
	for i := 0; i < 6; i++ {
		near[rng.Intn(len(near))] = spectrum.QuantizedPeak{Bin: rng.Intn(1000), Level: rng.Intn(16)}
	}
	// Unrelated.
	far := make([]spectrum.QuantizedPeak, len(base))
	for i := range far {
		far[i] = spectrum.QuantizedPeak{Bin: rng.Intn(1000), Level: rng.Intn(16)}
	}
	hb, _ := e.Encode(base)
	hn, _ := e.Encode(near)
	hf, _ := e.Encode(far)
	simNear := hammingSimilarity(hb, hn)
	simFar := hammingSimilarity(hb, hf)
	if simNear <= simFar+d/20 {
		t.Errorf("near sim %d not clearly above far sim %d (D=%d)", simNear, simFar, d)
	}
}

func TestLevelProximityPreserved(t *testing.T) {
	// Same peaks at adjacent levels must encode more similarly than
	// the same peaks at distant levels.
	d := 4096
	e := testEncoder(t, d, 500, 1)
	rng := rand.New(rand.NewSource(5))
	bins := make([]int, 40)
	for i := range bins {
		bins[i] = rng.Intn(500)
	}
	at := func(lvl int) BinaryHV {
		peaks := make([]spectrum.QuantizedPeak, len(bins))
		for i, b := range bins {
			peaks[i] = spectrum.QuantizedPeak{Bin: b, Level: lvl}
		}
		h, err := e.Encode(peaks)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h7, h8, h15 := at(7), at(8), at(15)
	simAdj := hammingSimilarity(h7, h8)
	simFar := hammingSimilarity(h7, h15)
	if simAdj <= simFar {
		t.Errorf("adjacent-level sim %d <= distant-level sim %d", simAdj, simFar)
	}
}

func TestEncodeVector(t *testing.T) {
	e := testEncoder(t, 512, 1399, 2)
	b := spectrum.DefaultBinner()
	s := &spectrum.Spectrum{
		ID: "q", PrecursorMZ: 600, Charge: 2,
		Peaks: []spectrum.Peak{
			{MZ: 200.2, Intensity: 10}, {MZ: 400.8, Intensity: 55}, {MZ: 900.1, Intensity: 3},
		},
	}
	v := b.Vectorize(s)
	h1, err := e.EncodeVector(v)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Encode(v.Quantize(16))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(h1.Words, h2.Words) {
		t.Error("EncodeVector differs from Encode of the quantized peaks")
	}
}

func TestChunkedEncoderEquivalentQuality(t *testing.T) {
	// §4.2.1: chunked level hypervectors should barely change encoding
	// behaviour. Check that a near-duplicate still beats an unrelated
	// spectrum with chunked levels.
	d := 4096
	ids := NewItemMemory(d, 500, 3, 7)
	ls := NewChunkedLevelSet(d, 16, 256, 8)
	e, err := NewEncoder(ids, ls)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	base := make([]spectrum.QuantizedPeak, 50)
	for i := range base {
		base[i] = spectrum.QuantizedPeak{Bin: rng.Intn(500), Level: rng.Intn(16)}
	}
	near := make([]spectrum.QuantizedPeak, len(base))
	copy(near, base)
	for i := 0; i < 5; i++ {
		near[rng.Intn(len(near))] = spectrum.QuantizedPeak{Bin: rng.Intn(500), Level: rng.Intn(16)}
	}
	far := make([]spectrum.QuantizedPeak, len(base))
	for i := range far {
		far[i] = spectrum.QuantizedPeak{Bin: rng.Intn(500), Level: rng.Intn(16)}
	}
	hb, _ := e.Encode(base)
	hn, _ := e.Encode(near)
	hf, _ := e.Encode(far)
	if hammingSimilarity(hb, hn) <= hammingSimilarity(hb, hf) {
		t.Error("chunked levels destroyed locality")
	}
}

// useGoEncodeKernel swaps the encoder's kernel value to the Go
// reference for the rest of the test.
func useGoEncodeKernel(t *testing.T) {
	prev := signedSumKernel
	signedSumKernel = signedSumWordsGo
	t.Cleanup(func() { signedSumKernel = prev })
}

// onBothEncodeKernels runs f under the dispatched kernel, then under
// the Go kernel swapped in (the same kernel twice on a box or build
// without the assembly).
func onBothEncodeKernels(t *testing.T, f func(t *testing.T)) {
	t.Run("dispatched", f)
	t.Run("go", func(t *testing.T) {
		useGoEncodeKernel(t)
		f(t)
	})
}

// accumulate computes the pre-quantization accumulator
// Σ ID_i ⊗ LV_i for a quantized peak list into acc, which must have
// length D. It is the scalar reference: Encode equals Sign of it.
func (e *Encoder) accumulate(peaks []spectrum.QuantizedPeak, acc []int32) error {
	if len(acc) != e.D() {
		return fmt.Errorf("hdc: accumulator length %d != D %d", len(acc), e.D())
	}
	if err := e.checkBins(peaks); err != nil {
		return err
	}
	clear(acc)
	for _, p := range peaks {
		id := e.IDs.ID(p.Bin)
		lv := e.Levels.Level(min(max(p.Level, 0), e.Levels.Q()-1))
		for i, v := range id.Vals {
			acc[i] += int32(v) * int32(lv.Bit(i))
		}
	}
	return nil
}

// matchReference asserts Encode == sign(accumulate) word for word (or
// the same error text from both) and returns the reference accumulator.
func matchReference(t testing.TB, e *Encoder, peaks []spectrum.QuantizedPeak) []int32 {
	t.Helper()
	acc := make([]int32, e.D())
	refErr := e.accumulate(peaks, acc)
	got, err := e.Encode(peaks)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			t.Fatalf("errors differ: accumulate %v, Encode %v", refErr, err)
		}
		return nil
	}
	want := sign(acc)
	if got.D != want.D || len(got.Words) != len(want.Words) {
		t.Fatalf("shape: D %d/%d words %d/%d", got.D, want.D, len(got.Words), len(want.Words))
	}
	for w := range want.Words {
		if got.Words[w] != want.Words[w] {
			t.Fatalf("%d peaks, word %d: kernel %#016x, reference %#016x", len(peaks), w, got.Words[w], want.Words[w])
		}
	}
	return acc
}

// TestEncodeMatchesReference holds both bit-sliced kernels against the
// scalar reference over every shape the counter width, the group and
// tail masks and the tie-break depend on: one-word, ragged-word and
// partial-last-group hypervectors, and peak counts from none to past
// the assembly's sixteen counter planes.
func TestEncodeMatchesReference(t *testing.T) {
	const bins = 1399
	for _, d := range []int{64, 1000, 1536, 2048, 8192} {
		if (testing.Short() || raceEnabled) && d > 2048 {
			continue // single-goroutine arithmetic: nothing for the detector, 10x the time
		}
		for precision := 1; precision <= 3; precision++ {
			ids := NewItemMemory(d, bins, precision, 100)
			for name, ls := range map[string]LevelSet{
				"flip":    NewFlipLevelSet(d, 16, 200),
				"chunked": NewChunkedLevelSet(d, 16, 256, 200),
			} {
				e, err := NewEncoder(ids, ls)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("D%d/p%d/%s", d, precision, name), func(t *testing.T) {
					onBothEncodeKernels(t, func(t *testing.T) { checkEncodeShapes(t, e) })
				})
			}
		}
	}
}

// checkEncodeShapes holds e's Encode to the scalar reference on every
// peak-list shape, under whichever kernel is in place.
func checkEncodeShapes(t *testing.T, e *Encoder) {
	d, precision, bins := e.D(), e.IDs.Precision, e.IDs.NumBins()
	rng := rand.New(rand.NewSource(int64(d + precision)))
	random := func(n int) []spectrum.QuantizedPeak {
		peaks := make([]spectrum.QuantizedPeak, n)
		for i := range peaks {
			peaks[i] = spectrum.QuantizedPeak{Bin: rng.Intn(bins), Level: rng.Intn(16)}
		}
		return peaks
	}
	matchReference(t, e, nil)
	matchReference(t, e, random(1))
	matchReference(t, e, random(150))
	matchReference(t, e, random(151))
	every := random(bins)
	for i := range every {
		every[i].Bin = i
	}
	matchReference(t, e, every)
	if d == 64 || d == 1536 && precision == 3 && !testing.Short() && !raceEnabled {
		// Either side of the sixteen-plane hand-over: at precision 3,
		// 8191 peaks are the assembly's widest sums and 8192 the first
		// that stay on the Go kernel (the scalar reference is slow at
		// this size, so only the one-word and the partial-group shape).
		wide := random(8200)
		matchReference(t, e, wide[:8191])
		matchReference(t, e, wide[:8192])
		matchReference(t, e, wide)
	}

	// One bin at the two extreme levels: the products cancel wherever
	// the level hypervectors differ, a planted zero-sum tie on even and
	// odd dimensions.
	acc := matchReference(t, e, []spectrum.QuantizedPeak{{Bin: 7, Level: 0}, {Bin: 7, Level: 15}})
	var ties [2]int
	for i, v := range acc {
		if v == 0 {
			ties[i%2]++
		}
	}
	if ties[0] == 0 || ties[1] == 0 {
		t.Errorf("planted ties missing: %d even, %d odd", ties[0], ties[1])
	}

	// Levels clamp to [0, Q) in every implementation.
	clamped, _ := e.Encode([]spectrum.QuantizedPeak{{Bin: 3, Level: 0}, {Bin: 9, Level: 15}, {Bin: 11, Level: 15}, {Bin: 12, Level: 0}})
	wild := []spectrum.QuantizedPeak{{Bin: 3, Level: -4}, {Bin: 9, Level: 1 << 40}, {Bin: 11, Level: 16}, {Bin: 12, Level: -1 << 62}}
	matchReference(t, e, wild)
	if h, _ := e.Encode(wild); !slices.Equal(h.Words, clamped.Words) {
		t.Error("negative/overflowing levels not clamped")
	}

	for _, bin := range []int{-1, bins} {
		bad := append(random(5), spectrum.QuantizedPeak{Bin: bin})
		if matchReference(t, e, bad) != nil {
			t.Errorf("bin %d accepted", bin)
		}
	}
}

// FuzzEncodeMatchesReference drives the same equality, on both kernels,
// from arbitrary shapes: raw is read as (bin lo, bin hi, level) byte triples, bins
// and levels deliberately allowed out of range.
func FuzzEncodeMatchesReference(f *testing.F) {
	every := make([]byte, 0, 3*64)
	for b := 0; b < 64; b++ {
		every = append(every, byte(b), 0, byte(b))
	}
	for _, d := range []uint16{64, 1000, 1536, 2048, 8192} {
		for precision := uint8(1); precision <= 3; precision++ {
			f.Add(d, precision, precision%2 == 0, []byte{})
			f.Add(d, precision, precision%2 == 1, []byte{5, 0, 3})
			f.Add(d, precision, true, []byte{7, 0, 0, 7, 0, 15})       // planted ties
			f.Add(d, precision, false, []byte{3, 0, 0xfc, 9, 0, 0x7f}) // clamped levels
			f.Add(d, precision, false, []byte{1, 0, 2, 64, 0, 1})      // bin == bins
			f.Add(d, precision, true, []byte{1, 0, 2, 0xff, 0xff, 1})  // bin == -1
			f.Add(d, precision, d%128 == 0, every)
		}
	}
	f.Fuzz(func(t *testing.T, d uint16, precision uint8, chunked bool, raw []byte) {
		dim := 1 + int(d)%8192
		var ls LevelSet = NewFlipLevelSet(dim, 16, 200)
		if chunked {
			ls = NewChunkedLevelSet(dim, 16, 256, 200)
		}
		e, err := NewEncoder(NewItemMemory(dim, 64, 1+int(precision)%3, 100), ls)
		if err != nil {
			t.Fatal(err)
		}
		peaks := make([]spectrum.QuantizedPeak, len(raw)/3)
		for i := range peaks {
			peaks[i] = spectrum.QuantizedPeak{
				Bin:   int(int16(uint16(raw[3*i]) | uint16(raw[3*i+1])<<8)),
				Level: int(int8(raw[3*i+2])),
			}
		}
		matchReference(t, e, peaks)
		useGoEncodeKernel(t)
		matchReference(t, e, peaks)
	})
}

var benchSink BinaryHV

// BenchmarkEncodeVector is the in-process encode figure: quantize +
// bit-sliced kernel for a 100-peak spectrum, also reported per peak.
// The plain leg encodes one spectrum every iteration, so its plane
// groups stay in cache; distinct64 encodes 64 distinct spectra in turn,
// whose bins reach across the item memory (2.8 MB at D = 2048), as a
// served batch's do.
func BenchmarkEncodeVector(b *testing.B) {
	const peaks, distinct = 100, 64
	rng := rand.New(rand.NewSource(3))
	vs := make([]spectrum.Vector, distinct)
	for k := range vs {
		vs[k] = spectrum.Vector{Entries: make([]spectrum.Entry, peaks), NumBins: 1399}
		for i, bin := range rng.Perm(1399)[:peaks] {
			vs[k].Entries[i] = spectrum.Entry{Bin: bin, Intensity: rng.Float64()}
		}
	}
	for _, d := range []int{2048, 8192} {
		e, err := NewEncoder(NewItemMemory(d, 1399, 3, 1), NewChunkedLevelSet(d, 16, 256, 2))
		if err != nil {
			b.Fatal(err)
		}
		for _, leg := range []struct {
			name string
			vs   []spectrum.Vector
		}{{fmt.Sprintf("D%d", d), vs[:1]}, {fmt.Sprintf("D%d/distinct%d", d, distinct), vs}} {
			b.Run(leg.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if benchSink, err = e.EncodeVector(leg.vs[i%len(leg.vs)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/peaks, "ns/peak")
			})
		}
	}
}
