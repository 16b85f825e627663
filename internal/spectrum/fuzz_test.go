package spectrum

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// referencePeakLine is what a peak line means: the first two fields of
// a trimmed line, split at unicode spaces, each converted by strconv.
func referencePeakLine(line []byte) (Peak, error) {
	fields := bytes.FieldsFunc(line, unicode.IsSpace)
	if len(fields) < 2 {
		return Peak{}, fmt.Errorf("bad peak line %q", line)
	}
	mz, err := strconv.ParseFloat(string(fields[0]), 64)
	if err != nil {
		return Peak{}, fmt.Errorf("bad m/z %q: %v", fields[0], err)
	}
	in, err := strconv.ParseFloat(string(fields[1]), 64)
	if err != nil {
		return Peak{}, fmt.Errorf("bad intensity %q: %v", fields[1], err)
	}
	return Peak{MZ: mz, Intensity: in}, nil
}

// referenceHeader is what a KEY=val header line means: the key
// upper-cased by strings.ToUpper, PEPMASS's first strings.Fields field
// and CHARGE's trimmed digits converted by strconv.
func referenceHeader(s *Spectrum, line string) error {
	key, val, _ := strings.Cut(line, "=")
	switch strings.ToUpper(key) {
	case "TITLE":
		s.ID = val
	case "PEPMASS":
		fields := strings.Fields(val)
		if len(fields) == 0 {
			return fmt.Errorf("empty PEPMASS")
		}
		mz, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("bad PEPMASS %q: %v", val, err)
		}
		s.PrecursorMZ = mz
	case "CHARGE":
		v := strings.TrimSuffix(strings.TrimSpace(val), "+")
		v = strings.TrimSuffix(v, "-")
		z, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad CHARGE %q: %v", val, err)
		}
		s.Charge = max(z, 1)
	case "SEQ":
		s.Peptide = val
	case "DECOY":
		s.IsDecoy = val == "1" || strings.EqualFold(val, "true")
	}
	return nil
}

// referenceReadMGF is what MGF text means, read line by line: split
// at '\n', each line trimmed, a peak line read by referencePeakLine and
// a header by referenceHeader.
func referenceReadMGF(text string) ([]*Spectrum, error) {
	var spectra []*Spectrum
	var cur *Spectrum
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || line[0] == '#':
		case line == "BEGIN IONS":
			if cur != nil {
				return nil, fmt.Errorf("mgf line %d: nested BEGIN IONS", i+1)
			}
			cur = &Spectrum{Charge: 1}
		case line == "END IONS":
			if cur == nil {
				return nil, fmt.Errorf("mgf line %d: END IONS without BEGIN", i+1)
			}
			cur.SortPeaks()
			spectra = append(spectra, cur)
			cur = nil
		case cur == nil:
		case strings.Contains(line, "="):
			if err := referenceHeader(cur, line); err != nil {
				return nil, fmt.Errorf("mgf line %d: %v", i+1, err)
			}
		default:
			p, err := referencePeakLine([]byte(line))
			if err != nil {
				return nil, fmt.Errorf("mgf line %d: %v", i+1, err)
			}
			cur.Peaks = append(cur.Peaks, p)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("mgf: unterminated IONS block at EOF")
	}
	return spectra, nil
}

// spectraText renders spectra with every float as its bits, so two
// readings compare equal exactly when they hold the same values — a NaN
// included, which reflect.DeepEqual never calls equal.
func spectraText(spectra []*Spectrum) string {
	var b strings.Builder
	for _, s := range spectra {
		fmt.Fprintf(&b, "%q %x %d %q %v %d:", s.ID, math.Float64bits(s.PrecursorMZ), s.Charge, s.Peptide, s.IsDecoy, len(s.Peaks))
		for _, p := range s.Peaks {
			fmt.Fprintf(&b, " %x/%x", math.Float64bits(p.MZ), math.Float64bits(p.Intensity))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// The MGF/MSP parsers sit on the network request path of the omsd
// search daemon, so they must be total: any byte stream either parses
// or returns an error — never panics — and parsing is deterministic.

func FuzzReadMGF(f *testing.F) {
	f.Add("BEGIN IONS\nTITLE=q1\nPEPMASS=445.5 1000\nCHARGE=2+\nSEQ=PEPTIDE\n100.1 10\n200.2 20\nEND IONS\n")
	f.Add("BEGIN IONS\nTITLE=q2\nPEPMASS=500.25\nCHARGE=3-\nDECOY=1\n150.5 5.5\nEND IONS\n")
	f.Add("# comment\nSEARCH=global header\nBEGIN IONS\nPEPMASS=300\n100 1\nEND IONS\n")
	f.Add("BEGIN IONS\nTITLE=unterminated\nPEPMASS=400\n100 1\n")
	f.Add("END IONS\n")
	f.Add("BEGIN IONS\nBEGIN IONS\n")
	f.Add("BEGIN IONS\nPEPMASS=\nEND IONS\n")
	f.Add("BEGIN IONS\nPEPMASS=nan\nCHARGE=x\n100 1 extra\nnot-a-peak\nEND IONS\n")
	f.Add("BEGIN IONS\nPEPMASS=1e309\n100 1\nEND IONS\n")
	f.Add("")
	f.Add("BEGIN IONS\nPEPMASS=300\n100\t1\n101 \t 2  3\n102\v3\n103\u00a04\n104\u20035 6\n10\xff5 7\n106 7\f8\n107\nEND IONS\n")
	// Decimals on and around the edges of the exact fast path.
	f.Add("BEGIN IONS\n1. .5\n. 1e3\n+1.5 -0.0\n0x1p3 1_0\n1..2 inf\n" +
		"123456789012345678 1234567890123456789\n12345678901234567890 9007199254740993\n9007199254740992 9007199254740991\n" +
		"0.0000000000000000000001 0.00000000000000000000001\n1.0000000000000000000000 000000000000000000.5\n4.35 0.1\nEND IONS\n")
	// What may sit at a block cut.
	f.Add("BEGIN IONS\nTITLE=a\nPEPMASS=1\n1 1\nBEGIN IONS\nTITLE=b\nPEPMASS=1\nEND IONS\n")
	f.Add("BEGIN IONS\nPEPMASS=1\nEND IONS\n  BEGIN IONS\nPEPMASS=2\nEND IONS\nBEGIN IONS\nTITLE=BEGIN IONS\nPEPMASS=3\nEND IONS")
	f.Add("BEGIN IONS\r\nPEPMASS=1\r\n1 2\r\nEND IONS\r\nBEGIN IONS\r\nPEPMASS=1\r\n3 4\r\nEND IONS\r\n")
	// Header keys in any case, ASCII or not (ToUpper maps "ı" and "ſ"
	// to "I" and "S"), and values around the number parsers' edges.
	f.Add("BEGIN IONS\ntitle=a=b\nPepMass= \t445.5\u00a01000\nCHARGE=\u2003+2+\nseq=\ndecoy=TRUE\ntıtle=x\npepmaſs=7\nTITLEX=y\nPEPMASS=1_0\nCHARGE=+\nCHARGE=99999999999999999999\nEND IONS\n")
	f.Add("BEGIN IONS\nTITLE=" + strings.Repeat("long ", 20) + "\nPEPMASS=1\nEND IONS\nBEGIN IONS\nBEGIN IONS=\nBEGIN IONS 1\n")
	// Lines the one-walk peak reader takes or leaves: trailing blanks
	// and CRs, a third field, leading blanks, a NaN, a last line with no
	// newline.
	f.Add("BEGIN IONS\nPEPMASS=1\n100.5 2 \t\r\n 101 3\n102 4 5\n103\t\t6\r\r\n104 7\v\n105. .5\nnan 1\n106 nan\n107 8\nEND IONS\nBEGIN IONS\n1 2")
	f.Fuzz(func(t *testing.T, data string) {
		for _, line := range bytes.Split([]byte(data), []byte("\n")) {
			// Whatever the exact fast path takes, it reads to the bits
			// strconv reads it to.
			for _, field := range bytes.Fields(line) {
				if v, end, ok := scanDecimal(field, 0); ok && end == len(field) {
					want, err := strconv.ParseFloat(string(field), 64)
					if err != nil || math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("field %q: fast path %v, strconv %v (%v)", field, v, want, err)
					}
				}
			}
			// And a peak line parses, or fails, as it does without the
			// fast path: split at unicode spaces, both fields to strconv.
			line = bytes.TrimSpace(line)
			// A header line sets what it sets, or fails, as the
			// string-splitting reader did.
			if key, val, ok := bytes.Cut(line, []byte("=")); ok {
				got, want := Spectrum{Charge: 1}, Spectrum{Charge: 1}
				gerr, werr := applyHeader(&got, key, val), referenceHeader(&want, string(line))
				if errText(gerr) != errText(werr) || fmt.Sprintf("%+v %x", got, math.Float64bits(got.PrecursorMZ)) !=
					fmt.Sprintf("%+v %x", want, math.Float64bits(want.PrecursorMZ)) {
					t.Fatalf("header %q: %+v (%v), reference %+v (%v)", line, got, gerr, want, werr)
				}
			}
			got, gerr := parsePeakLine(line)
			want, werr := referencePeakLine(line)
			if errText(gerr) != errText(werr) || math.Float64bits(got.MZ) != math.Float64bits(want.MZ) ||
				math.Float64bits(got.Intensity) != math.Float64bits(want.Intensity) {
				t.Fatalf("line %q: parsed %v (%v), reference %v (%v)", line, got, gerr, want, werr)
			}
		}
		first, err := ReadMGF(strings.NewReader(data))
		second, err2 := ReadMGF(strings.NewReader(data))
		if (err == nil) != (err2 == nil) || len(first) != len(second) {
			t.Fatalf("non-deterministic parse: %d/%v vs %d/%v", len(first), err, len(second), err2)
		}
		// The whole text reads as it does line by line: the same
		// spectra, or the same error for the same line.
		if want, werr := referenceReadMGF(data); errText(err) != errText(werr) || spectraText(first) != spectraText(want) {
			t.Fatalf("read %d spectra, error %v; line by line %d, %v\n%s---\n%s", len(first), err, len(want), werr, spectraText(first), spectraText(want))
		}
		// Where the reader cuts its input into blocks shows in nothing.
		for _, size := range []int{16, 64} {
			got, gerr := readMGFIn(data, size)
			if errText(gerr) != errText(err) || spectraText(got) != spectraText(first) {
				t.Fatalf("%d-byte blocks: %d spectra, error %v; one block: %d spectra, error %v", size, len(got), gerr, len(first), err)
			}
		}
		if err != nil {
			return
		}
		// Valid spectra must survive a write → read round trip with the
		// same shape (peak values go through formatting, so only
		// structure is pinned).
		for _, s := range first {
			if s.Validate() != nil {
				return
			}
			if strings.ContainsAny(s.ID, "\r\n") || strings.ContainsAny(s.Peptide, "\r\n") {
				return // a header value with a newline cannot round-trip
			}
		}
		var buf bytes.Buffer
		if err := WriteMGF(&buf, first); err != nil {
			t.Fatalf("WriteMGF of parsed spectra: %v", err)
		}
		back, err := ReadMGF(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written MGF: %v\n%s", err, buf.String())
		}
		if len(back) != len(first) {
			t.Fatalf("round trip changed spectrum count: %d -> %d", len(first), len(back))
		}
		for i := range back {
			if len(back[i].Peaks) != len(first[i].Peaks) {
				t.Fatalf("spectrum %d round trip changed peak count: %d -> %d",
					i, len(first[i].Peaks), len(back[i].Peaks))
			}
		}
	})
}

func FuzzReadMSP(f *testing.F) {
	f.Add("Name: PEPTIDE/2\nMW: 800.4\nComment: Spec=Consensus\nNum peaks: 2\n100.1\t10\t\"b2\"\n200.2\t20\t\"y3\"\n")
	f.Add("Name: DECOY_PEP/3\nPrecursorMZ: 450.5\nNum peaks: 1\n150.5 5\n")
	f.Add("Name: A/1\nNum peaks: 0\n\nName: B/2\nNum peaks: 1\n100 1\n")
	f.Add("Num peaks: 1\n100 1\n")
	f.Add("Name: X/2\nNum peaks: two\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		first, err := ReadMSP(strings.NewReader(data))
		second, err2 := ReadMSP(strings.NewReader(data))
		if (err == nil) != (err2 == nil) || len(first) != len(second) {
			t.Fatalf("non-deterministic parse: %d/%v vs %d/%v", len(first), err, len(second), err2)
		}
		if err != nil {
			return
		}
		for _, s := range first {
			// Structural invariants the engine relies on downstream.
			for i := 1; i < len(s.Peaks); i++ {
				if s.Peaks[i].MZ < s.Peaks[i-1].MZ {
					t.Fatalf("spectrum %s peaks not sorted at %d", s.ID, i)
				}
			}
		}
	})
}

// referencePreprocess is AppendPreprocess as the steps read one by one:
// copy, sort by m/z, filter by range and precursor, find the base peak,
// filter by it, cut to the MaxPeaks most intense and normalize, a pass
// each. The range filter drops a NaN m/z.
func referencePreprocess(cfg PreprocessConfig, s *Spectrum) ([]Peak, bool) {
	peaks := append([]Peak(nil), s.Peaks...)
	sortPeaks(peaks)
	kept := peaks[:0]
	for _, p := range peaks {
		if cfg.MinMZ > 0 && !(p.MZ >= cfg.MinMZ) || cfg.MaxMZ > 0 && !(p.MZ <= cfg.MaxMZ) || math.IsNaN(p.MZ) {
			continue
		}
		if cfg.RemovePrecursor && math.Abs(p.MZ-s.PrecursorMZ) <= cfg.PrecursorTol {
			continue
		}
		kept = append(kept, p)
	}
	peaks = kept
	if cfg.NoiseFraction > 0 && len(peaks) > 0 {
		thresh := (&Spectrum{Peaks: peaks}).BasePeak().Intensity * cfg.NoiseFraction
		kept = peaks[:0]
		for _, p := range peaks {
			if p.Intensity >= thresh {
				kept = append(kept, p)
			}
		}
		peaks = kept
	}
	if cfg.MaxPeaks > 0 && len(peaks) > cfg.MaxPeaks {
		slices.SortFunc(peaks, func(a, b Peak) int { return ascending(b.Intensity, a.Intensity) })
		peaks = peaks[:cfg.MaxPeaks]
		sortPeaks(peaks)
	}
	if len(peaks) < cfg.MinPeaks {
		return nil, false
	}
	applyNormalization(peaks, cfg.Norm)
	return peaks, true
}

// referenceVectorize is AppendVectorize in three passes: bin every
// peak, sort the entries stably by bin, merge equal bins.
func referenceVectorize(b Binner, peaks []Peak) []Entry {
	var entries []Entry
	for _, p := range peaks {
		if !(p.MZ >= b.MinMZ && p.MZ < b.MaxMZ) {
			continue
		}
		i := int((p.MZ - b.MinMZ) / b.BinWidth)
		if i >= b.NumBins() {
			i = b.NumBins() - 1
		}
		entries = append(entries, Entry{Bin: i, Intensity: 0 + p.Intensity})
	}
	slices.SortStableFunc(entries, func(a, c Entry) int { return a.Bin - c.Bin })
	merged := entries[:0]
	for _, e := range entries {
		if n := len(merged); n > 0 && merged[n-1].Bin == e.Bin {
			merged[n-1].Intensity += e.Intensity
		} else {
			merged = append(merged, e)
		}
	}
	return merged
}

// FuzzPreprocessChain holds the preprocessing chain — AppendPreprocess,
// then AppendVectorize — to the references above, bit for bit, over peak lists in and out of m/z order with ties, NaNs,
// infinities, zeros and negatives, under configurations that switch
// each step on and off. Every 5 bytes of peaks make a peak: a flags
// byte, then 16-bit m/z and intensity codes on grids coarse enough to
// tie.
func FuzzPreprocessChain(f *testing.F) {
	f.Add([]byte("\x00\x10\x00\x01\x00\x00\x20\x00\x02\x00\x00\x30\x00\x03\x00\x00\x40\x00\x04\x00\x00\x50\x00\x05\x00"), uint16(0x0101), 500.0)
	f.Add([]byte("\x00\x50\x00\x01\x00\x00\x20\x00\x02\x00\x00\x20\x00\x03\x00\x00\x40\x00\x04\x00\x01\x50\x00\x05\x00\x00\x60\x00\x00\x00"), uint16(0x0055), 900.0)
	f.Add([]byte("\x02\x10\x00\x01\x00\x04\x10\x00\x01\x00\x08\x11\x00\x01\x00\x10\x12\x00\x01\x00\x20\x13\x00\xff\xff\x00\x14\x00\x01\x00"), uint16(0x01aa), 250.0)
	f.Fuzz(func(t *testing.T, raw []byte, knobs uint16, precursor float64) {
		s := &Spectrum{PrecursorMZ: precursor}
		for ; len(raw) >= 5; raw = raw[5:] {
			flags := raw[0]
			p := Peak{
				MZ:        50 + float64(uint16(raw[1])<<8|uint16(raw[2]))/40,
				Intensity: float64(uint16(raw[3])<<8|uint16(raw[4])) / 8,
			}
			switch {
			case flags&1 != 0:
				p.MZ = math.NaN()
			case flags&2 != 0:
				p.MZ = math.Inf(1 - int(flags>>6&2))
			}
			switch {
			case flags&4 != 0:
				p.Intensity = math.NaN()
			case flags&8 != 0:
				p.Intensity = -p.Intensity
			case flags&16 != 0:
				p.Intensity = math.Copysign(0, -1)
			case flags&32 != 0:
				p.Intensity = math.Inf(1)
			}
			s.Peaks = append(s.Peaks, p)
		}
		if knobs&1 != 0 {
			s.SortPeaks()
		}
		cfg := DefaultPreprocess()
		cfg.Norm = Normalization(knobs >> 1 & 3)
		cfg.MaxPeaks = []int{150, 0, 3, 8}[knobs>>3&3]
		cfg.NoiseFraction = []float64{0.01, 0, 0.2, 1}[knobs>>5&3]
		cfg.MinPeaks = int(knobs >> 7 & 3)
		if knobs&(1<<9) != 0 {
			cfg.MinMZ, cfg.MaxMZ = 0, 0
		}
		cfg.RemovePrecursor = knobs&(1<<10) == 0
		b := DefaultBinner()
		if knobs&(1<<11) != 0 {
			b = Binner{MinMZ: 0, MaxMZ: 2000, BinWidth: 0.02}
		}

		want, wok := referencePreprocess(cfg, s)
		prefix := []Peak{{MZ: 1, Intensity: 2}}
		got, ok := cfg.AppendPreprocess(prefix, s)
		if ok != wok || got[0] != prefix[0] || peaksText(got[1:]) != peaksText(want) {
			t.Fatalf("%+v over %v: preprocessed to %v %v, reference %v %v", cfg, s.Peaks, got[1:], ok, want, wok)
		}
		// Vectorize the preprocessed peaks (in m/z order) and the raw ones
		// (in any order), each from a non-empty dst.
		for _, peaks := range [][]Peak{want, s.Peaks} {
			want := referenceVectorize(b, peaks)
			got := b.AppendVectorize([]Entry{{Bin: -1}}, peaks)
			if got[0].Bin != -1 || entriesText(got[1:]) != entriesText(want) {
				t.Fatalf("binning %v: %v, reference %v", peaks, got[1:], want)
			}
		}
	})
}

// peaksText renders peaks with every float as its bits.
func peaksText(peaks []Peak) string {
	return spectraText([]*Spectrum{{Peaks: peaks}})
}

// entriesText renders entries with every intensity as its bits.
func entriesText(entries []Entry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, " %d/%x", e.Bin, math.Float64bits(e.Intensity))
	}
	return b.String()
}
