package spectrum

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// This file implements a reader and writer for the Mascot Generic
// Format (MGF), the de-facto text interchange format for MS/MS peak
// lists. The subset supported covers BEGIN/END IONS blocks with TITLE,
// PEPMASS, CHARGE, SEQ (peptide annotation) and DECOY headers plus
// "m/z intensity" peak lines — enough to round-trip every dataset this
// repository generates.

// WriteMGF writes the spectra to w in MGF format.
func WriteMGF(w io.Writer, spectra []*Spectrum) error {
	bw := bufio.NewWriter(w)
	for _, s := range spectra {
		if _, err := fmt.Fprintf(bw, "BEGIN IONS\nTITLE=%s\nPEPMASS=%.6f\nCHARGE=%d+\n",
			s.ID, s.PrecursorMZ, s.Charge); err != nil {
			return err
		}
		if s.Peptide != "" {
			if _, err := fmt.Fprintf(bw, "SEQ=%s\n", s.Peptide); err != nil {
				return err
			}
		}
		if s.IsDecoy {
			if _, err := fmt.Fprintln(bw, "DECOY=1"); err != nil {
				return err
			}
		}
		for _, p := range s.Peaks {
			if _, err := fmt.Fprintf(bw, "%.5f %.4f\n", p.MZ, p.Intensity); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "END IONS"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMGF parses all spectra from an MGF stream. Unknown header lines
// are ignored; malformed peak lines or structure produce an error with
// the offending line number.
func ReadMGF(r io.Reader) ([]*Spectrum, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		spectra []*Spectrum
		cur     *Spectrum
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		// Lines stay bytes: a peak line — nearly every line of a library
		// — is split and parsed in place; only headers become strings.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		switch {
		case string(line) == "BEGIN IONS":
			if cur != nil {
				return nil, fmt.Errorf("mgf line %d: nested BEGIN IONS", lineNo)
			}
			cur = &Spectrum{Charge: 1}
		case string(line) == "END IONS":
			if cur == nil {
				return nil, fmt.Errorf("mgf line %d: END IONS without BEGIN", lineNo)
			}
			cur.SortPeaks()
			spectra = append(spectra, cur)
			cur = nil
		case cur == nil:
			// Global headers outside blocks are permitted and ignored.
		case bytes.IndexByte(line, '=') >= 0:
			key, val, _ := strings.Cut(string(line), "=")
			if err := applyHeader(cur, strings.ToUpper(key), val); err != nil {
				return nil, fmt.Errorf("mgf line %d: %v", lineNo, err)
			}
		default:
			p, err := parsePeakLine(line)
			if err != nil {
				return nil, fmt.Errorf("mgf line %d: %v", lineNo, err)
			}
			cur.Peaks = append(cur.Peaks, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("mgf: unterminated IONS block at EOF")
	}
	return spectra, nil
}

func applyHeader(s *Spectrum, key, val string) error {
	switch key {
	case "TITLE":
		s.ID = val
	case "PEPMASS":
		// PEPMASS may carry "mz [intensity]".
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
		if z < 1 {
			z = 1
		}
		s.Charge = z
	case "SEQ":
		s.Peptide = val
	case "DECOY":
		s.IsDecoy = val == "1" || strings.EqualFold(val, "true")
	}
	return nil
}

// parsePeakLine parses the first two whitespace-separated fields of a
// trimmed line as m/z and intensity; further fields are ignored. The
// string conversions do not escape (strconv copies what its errors
// quote), so a well-formed line allocates nothing.
func parsePeakLine(line []byte) (Peak, error) {
	mzField, inField, ok := splitPeakLine(line)
	if !ok {
		return Peak{}, fmt.Errorf("bad peak line %q", line)
	}
	mz, err := strconv.ParseFloat(string(mzField), 64)
	if err != nil {
		return Peak{}, fmt.Errorf("bad m/z %q: %v", mzField, err)
	}
	in, err := strconv.ParseFloat(string(inField), 64)
	if err != nil {
		return Peak{}, fmt.Errorf("bad intensity %q: %v", inField, err)
	}
	return Peak{MZ: mz, Intensity: in}, nil
}

// splitPeakLine cuts a line's first two fields at ASCII spaces and
// tabs with a byte loop. A line that, up to the end of its second
// field, holds anything else unicode.IsSpace could call a space — the
// other ASCII controls, or any byte of a multi-byte rune — is left to
// splitPeakLineUnicode, so the two always agree. ok is false when the
// line has no separator at all.
func splitPeakLine(line []byte) (mz, in []byte, ok bool) {
	blank := func(c byte) bool { return c == ' ' || c == '\t' }
	other := func(c byte) bool { return c >= 0x80 || '\n' <= c && c <= '\r' }
	i := 0
	for ; i < len(line) && !blank(line[i]); i++ {
		if other(line[i]) {
			return splitPeakLineUnicode(line)
		}
	}
	if i == len(line) {
		return nil, nil, false
	}
	j := i
	for j < len(line) && blank(line[j]) {
		j++
	}
	k := j
	for ; k < len(line) && !blank(line[k]); k++ {
		if other(line[k]) {
			return splitPeakLineUnicode(line)
		}
	}
	return line[:i], line[j:k], true
}

// splitPeakLineUnicode is the general splitter: any unicode.IsSpace
// rune separates.
func splitPeakLineUnicode(line []byte) (mz, in []byte, ok bool) {
	i := bytes.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return nil, nil, false
	}
	mz, in = line[:i], bytes.TrimLeftFunc(line[i:], unicode.IsSpace)
	if j := bytes.IndexFunc(in, unicode.IsSpace); j >= 0 {
		in = in[:j]
	}
	return mz, in, true
}
