package spectrum

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestMGFRoundTrip(t *testing.T) {
	in := []*Spectrum{
		{
			ID: "scan=1", PrecursorMZ: 523.7744, Charge: 2,
			Peptide: "PEPTIDEK",
			Peaks: []Peak{
				{MZ: 147.11, Intensity: 100.5},
				{MZ: 263.09, Intensity: 42},
			},
		},
		{
			ID: "scan=2", PrecursorMZ: 801.4, Charge: 3, IsDecoy: true,
			Peaks: []Peak{{MZ: 301.2, Intensity: 7}},
		},
	}
	var buf bytes.Buffer
	if err := WriteMGF(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMGF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("read %d spectra", len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.ID != b.ID || a.Charge != b.Charge || a.Peptide != b.Peptide || a.IsDecoy != b.IsDecoy {
			t.Errorf("spectrum %d header mismatch: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.PrecursorMZ-b.PrecursorMZ) > 1e-5 {
			t.Errorf("spectrum %d precursor %v vs %v", i, a.PrecursorMZ, b.PrecursorMZ)
		}
		if len(a.Peaks) != len(b.Peaks) {
			t.Fatalf("spectrum %d peaks %d vs %d", i, len(a.Peaks), len(b.Peaks))
		}
		for j := range a.Peaks {
			if math.Abs(a.Peaks[j].MZ-b.Peaks[j].MZ) > 1e-4 ||
				math.Abs(a.Peaks[j].Intensity-b.Peaks[j].Intensity) > 1e-3 {
				t.Errorf("spectrum %d peak %d: %+v vs %+v", i, j, a.Peaks[j], b.Peaks[j])
			}
		}
	}
}

func TestReadMGFTolerantHeaders(t *testing.T) {
	src := `
# comment
GLOBAL=ignored
BEGIN IONS
TITLE=q1
PEPMASS=612.33 12345.6
CHARGE=2+
RTINSECONDS=88.2
100.5 10
200.25 20
END IONS
`
	out, err := ReadMGF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("spectra = %d", len(out))
	}
	s := out[0]
	if s.ID != "q1" || s.Charge != 2 || math.Abs(s.PrecursorMZ-612.33) > 1e-9 {
		t.Errorf("parsed header: %+v", s)
	}
	if len(s.Peaks) != 2 {
		t.Errorf("peaks = %d", len(s.Peaks))
	}
}

func TestReadMGFErrors(t *testing.T) {
	cases := map[string]string{
		"nested begin":   "BEGIN IONS\nBEGIN IONS\n",
		"end without":    "END IONS\n",
		"unterminated":   "BEGIN IONS\nTITLE=x\n",
		"bad peak":       "BEGIN IONS\nfoo bar\nEND IONS\n",
		"bad pepmass":    "BEGIN IONS\nPEPMASS=abc\nEND IONS\n",
		"bad charge":     "BEGIN IONS\nCHARGE=zz+\nEND IONS\n",
		"one field peak": "BEGIN IONS\n123.4\nEND IONS\n",
	}
	for name, src := range cases {
		if _, err := ReadMGF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadMGFSortsPeaks(t *testing.T) {
	src := "BEGIN IONS\nTITLE=t\nPEPMASS=500\nCHARGE=2+\n300 1\n100 2\n200 3\nEND IONS\n"
	out, err := ReadMGF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	p := out[0].Peaks
	if p[0].MZ != 100 || p[1].MZ != 200 || p[2].MZ != 300 {
		t.Errorf("peaks not sorted: %+v", p)
	}
}

func TestReadMGFNegativeChargeClamped(t *testing.T) {
	src := "BEGIN IONS\nTITLE=t\nPEPMASS=500\nCHARGE=0+\n100 1\nEND IONS\n"
	out, err := ReadMGF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Charge != 1 {
		t.Errorf("charge = %d, want clamp to 1", out[0].Charge)
	}
}

// syntheticMGF renders n spectra of 40–80 peaks the way WriteMGF does:
// the shape of a request body or a library file.
func syntheticMGF(tb testing.TB, n int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	spectra := make([]*Spectrum, n)
	for i := range spectra {
		s := &Spectrum{ID: fmt.Sprintf("synthetic:%d", i), PrecursorMZ: 400 + 800*rng.Float64(), Charge: 2 + i%2}
		for p := 40 + rng.Intn(41); p > 0; p-- {
			s.Peaks = append(s.Peaks, Peak{MZ: 50 + 1400*rng.Float64(), Intensity: 100 * rng.Float64()})
		}
		s.SortPeaks()
		spectra[i] = s
	}
	var buf bytes.Buffer
	if err := WriteMGF(&buf, spectra); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// noLen hides a reader's Len: a file has none to show.
type noLen struct{ io.Reader }

// errText is err's message, empty for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// readMGFIn parses text in blocks of blockSize bytes.
func readMGFIn(text string, blockSize int) ([]*Spectrum, error) {
	return readMGF(noLen{strings.NewReader(text)}, blockSize)
}

// TestReadMGFBlocks pins that where the input is cut into blocks shows
// in nothing: not in the spectra, and not in which error is reported
// for which line, whatever sits at a cut.
func TestReadMGFBlocks(t *testing.T) {
	spec := func(title string) string {
		return "BEGIN IONS\nTITLE=" + title + "\nPEPMASS=500.5\nCHARGE=2+\n100.5 1\n200.25 2\nEND IONS\n"
	}
	good := spec("a") + "# between\n" + spec("b") + spec("c")
	cases := []struct{ name, text, err string }{
		{"good", good, ""},
		{"no trailing newline", strings.TrimSuffix(good, "\n"), ""},
		{"CRLF", strings.ReplaceAll(good, "\n", "\r\n"), ""},
		{"indented BEGIN", spec("a") + "  BEGIN IONS\nTITLE=b\nPEPMASS=1\nEND IONS\n" + spec("c"), ""},
		{"BEGIN in a title", spec("a") + spec("BEGIN IONS") + "BEGIN IONS\nTITLE=\nBEGIN IONS=1\nPEPMASS=2\nEND IONS\n", ""},
		{"long header", spec("a") + spec(strings.Repeat("x", 300)) + spec("c"), ""},
		{"nested at a cut", spec("a") + "BEGIN IONS\nTITLE=b\nPEPMASS=500.5\n100.5 1\n" + spec("c"), "mgf line 12: nested BEGIN IONS"},
		{"nested indented", spec("a") + "BEGIN IONS\nTITLE=b\n\tBEGIN IONS \n" + spec("c"), "mgf line 10: nested BEGIN IONS"},
		{"unterminated", good + "BEGIN IONS\nTITLE=d\n", "mgf: unterminated IONS block at EOF"},
		{"END without BEGIN", good + "END IONS\n" + spec("d"), "mgf line 23: END IONS without BEGIN"},
		{"bad peak late", good + spec("d") + "BEGIN IONS\n100.5 x\nEND IONS\n", `mgf line 31: bad intensity "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"earliest error wins", spec("a") + "BEGIN IONS\nfoo\nEND IONS\n" + spec("c") + "BEGIN IONS\nBEGIN IONS\n", `mgf line 9: bad peak line "foo"`},
	}
	for _, tc := range cases {
		want, err := ReadMGF(strings.NewReader(tc.text))
		if errText(err) != tc.err {
			t.Errorf("%s: error %q, want %q", tc.name, errText(err), tc.err)
		}
		if tc.err == "" && len(want) != 3 {
			t.Errorf("%s: %d spectra, want 3", tc.name, len(want))
		}
		for size := 1; size <= 80; size++ {
			got, gerr := readMGFIn(tc.text, size)
			if errText(gerr) != errText(err) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s in %d-byte blocks: %d spectra, error %v; in one block %d, %v", tc.name, size, len(got), gerr, len(want), err)
			}
		}
	}
}

// TestReadMGFReadError pins that a failing reader's error is returned,
// after any parse error in the whole blocks read before it.
func TestReadMGFReadError(t *testing.T) {
	boom := errors.New("boom")
	text := syntheticMGF(t, 8)
	for _, size := range []int{64, len(text) / 2, 2 * len(text)} {
		r := io.MultiReader(bytes.NewReader(text), iotest.ErrReader(boom))
		if _, err := readMGF(r, size); err != boom {
			t.Errorf("%d-byte blocks: error %v, want the reader's", size, err)
		}
	}
	r := io.MultiReader(strings.NewReader("BEGIN IONS\nfoo\n"), bytes.NewReader(text), iotest.ErrReader(boom))
	if _, err := readMGF(r, 64); err == nil || err.Error() != `mgf line 2: bad peak line "foo"` {
		t.Errorf("error %v, want the parse error of line 2", err)
	}
}

// TestReadMGFPeaksDoNotShare pins the arena contract: the spectra of a
// block share one backing array, and appending to one spectrum's Peaks
// must copy them, not write over the next spectrum's first peak.
func TestReadMGFPeaksDoNotShare(t *testing.T) {
	out, err := ReadMGF(bytes.NewReader(syntheticMGF(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(out); i++ {
		next := out[i+1].Peaks[0]
		out[i].Peaks = append(out[i].Peaks, Peak{MZ: -1, Intensity: -1})
		if out[i+1].Peaks[0] != next {
			t.Fatalf("append to spectrum %d's peaks overwrote spectrum %d's first peak", i, i+1)
		}
	}
}

// TestParseMGFRetainsNoText pins what lets a caller recycle the text
// it parsed (omsd's pooled request bodies): once the text is written
// over, the spectra ParseMGF made of it are unchanged.
func TestParseMGFRetainsNoText(t *testing.T) {
	text := append(syntheticMGF(t, 3), "BEGIN IONS\nTITLE=decoy:1\nPEPMASS=512.25 30\nCHARGE=3+\nSEQ=PEPTIDEK\nDECOY=true\n150.5 5.5\nEND IONS\n"...)
	want, err := ParseMGF(bytes.Clone(text))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMGF(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := range text {
		text[i] = 'X'
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("spectrum %d changed with its text: %+v, want %+v", i, *got[i], *want[i])
		}
	}
}

// TestReadMGFAllocs pins that parsing allocates per spectrum (the
// Spectrum and its ID) and per call (the text block, the peak arena,
// the result slice), never per peak, per line or per header.
func TestReadMGFAllocs(t *testing.T) {
	const n = 64
	body := syntheticMGF(t, n)
	peaks := bytes.Count(body, []byte("\n")) - 6*n
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if out, err := ReadMGF(r); err != nil || len(out) != n {
			t.Fatalf("%d spectra, error %v", len(out), err)
		}
	})
	if limit := float64(2*n + 20); allocs > limit {
		t.Errorf("%v allocations for %d spectra of %d peaks, want at most %v", allocs, n, peaks, limit)
	}
	t.Logf("%v allocations, %d spectra, %d peaks", allocs, n, peaks)
}

var benchSpectra []*Spectrum

// BenchmarkReadMGF times the reader on a 64-spectrum request body (one
// block, parsed inline) and on 1 MiB of library text cut into 64 KiB
// blocks (the parallel path at a size a smoke run affords).
func BenchmarkReadMGF(b *testing.B) {
	body := syntheticMGF(b, 64)
	library := syntheticMGF(b, 900)
	for _, bc := range []struct {
		name      string
		text      []byte
		blockSize int
	}{
		{"body64", body, mgfBlockSize},
		{"library1MiB", library, 64 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.text)))
			b.ReportAllocs()
			r := bytes.NewReader(bc.text)
			for i := 0; i < b.N; i++ {
				r.Reset(bc.text)
				var err error
				if benchSpectra, err = readMGF(r, bc.blockSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScanDecimalMatchesStrconv holds the exact fast path to strconv's
// bits over random decimals of every digit count and point position it
// takes, and a few past each edge that it must decline.
func TestScanDecimalMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	taken := 0
	for i := 0; i < 200000; i++ {
		digits := make([]byte, 1+rng.Intn(24))
		for j := range digits {
			digits[j] = '0' + byte(rng.Intn(10))
		}
		field := string(digits)
		if at := rng.Intn(len(field) + 2); at <= len(field) {
			field = field[:at] + "." + field[at:]
		}
		v, end, ok := scanDecimal([]byte(field), 0)
		if end != len(field) {
			t.Fatalf("%q: scan stopped at %d", field, end)
		}
		want, err := strconv.ParseFloat(field, 64)
		if ok && (err != nil || math.Float64bits(v) != math.Float64bits(want)) {
			t.Fatalf("%q: fast path %v, strconv %v (%v)", field, v, want, err)
		}
		if ok {
			taken++
		}
	}
	if taken < 100000 {
		t.Errorf("fast path took %d of 200000 decimals", taken)
	}
	for _, field := range []string{"", ".", "-1", "+1", "1e3", "1E3", "inf", "NaN", "0x10", "1_0", "1..", "9007199254740992", "1234567890123456789", "0.12345678901234567890123"} {
		if _, end, ok := scanDecimal([]byte(field), 0); ok && end == len(field) {
			t.Errorf("%q: taken by the fast path", field)
		}
	}
}
