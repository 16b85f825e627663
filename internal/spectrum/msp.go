package spectrum

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a reader and writer for the NIST MSP text
// format, the de-facto distribution format for spectral libraries
// (the human HCD and yeast libraries the paper searches are shipped
// as MSP). The subset covers Name, MW/PrecursorMZ, Charge, Comment
// (with Decoy flag), Num peaks and "m/z<tab>intensity" peak lines.

// WriteMSP writes the spectra to w in MSP format.
func WriteMSP(w io.Writer, spectra []*Spectrum) error {
	bw := bufio.NewWriter(w)
	for _, s := range spectra {
		name := s.Peptide
		if name == "" {
			name = s.ID
		}
		if _, err := fmt.Fprintf(bw, "Name: %s/%d\n", name, s.Charge); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "PrecursorMZ: %.6f\n", s.PrecursorMZ); err != nil {
			return err
		}
		comment := fmt.Sprintf("Comment: ID=%s", s.ID)
		if s.IsDecoy {
			comment += " Decoy=1"
		}
		if _, err := fmt.Fprintln(bw, comment); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "Num peaks: %d\n", len(s.Peaks)); err != nil {
			return err
		}
		for _, p := range s.Peaks {
			if _, err := fmt.Fprintf(bw, "%.5f\t%.4f\n", p.MZ, p.Intensity); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMSP parses all spectra from an MSP stream.
func ReadMSP(r io.Reader) ([]*Spectrum, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		spectra   []*Spectrum
		cur       *Spectrum
		wantPeaks int
		lineNo    int
	)
	flush := func() error {
		if cur == nil {
			return nil
		}
		if wantPeaks >= 0 && len(cur.Peaks) != wantPeaks {
			return fmt.Errorf("msp: spectrum %q has %d peaks, header said %d",
				cur.ID, len(cur.Peaks), wantPeaks)
		}
		cur.SortPeaks()
		spectra = append(spectra, cur)
		cur = nil
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "Name:"):
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &Spectrum{Charge: 1}
			wantPeaks = -1
			name := strings.TrimSpace(strings.TrimPrefix(line, "Name:"))
			if seq, chg, ok := strings.Cut(name, "/"); ok {
				cur.Peptide = seq
				if z, err := strconv.Atoi(strings.TrimSpace(chg)); err == nil && z >= 1 {
					cur.Charge = z
				}
			} else {
				cur.Peptide = name
			}
			if cur.ID == "" {
				cur.ID = name
			}
		case cur == nil:
			return nil, fmt.Errorf("msp line %d: content before Name:", lineNo)
		case strings.HasPrefix(line, "PrecursorMZ:") || strings.HasPrefix(line, "PRECURSORMZ:"):
			_, val, _ := strings.Cut(line, ":")
			mz, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("msp line %d: bad PrecursorMZ: %v", lineNo, err)
			}
			cur.PrecursorMZ = mz
		case strings.HasPrefix(line, "MW:"):
			// Molecular weight; retained only if PrecursorMZ is absent.
			if cur.PrecursorMZ == 0 {
				mw, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "MW:")), 64)
				if err != nil {
					return nil, fmt.Errorf("msp line %d: bad MW: %v", lineNo, err)
				}
				z := cur.Charge
				if z < 1 {
					z = 1
				}
				cur.PrecursorMZ = mw/float64(z) + protonMass
			}
		case strings.HasPrefix(line, "Charge:"):
			z, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "Charge:")))
			if err != nil {
				return nil, fmt.Errorf("msp line %d: bad Charge: %v", lineNo, err)
			}
			if z >= 1 {
				cur.Charge = z
			}
		case strings.HasPrefix(line, "Comment:"):
			for _, field := range strings.Fields(strings.TrimPrefix(line, "Comment:")) {
				if key, val, ok := strings.Cut(field, "="); ok {
					switch key {
					case "ID":
						cur.ID = val
					case "Decoy":
						cur.IsDecoy = val == "1" || strings.EqualFold(val, "true")
					}
				}
			}
		case strings.HasPrefix(line, "Num peaks:") || strings.HasPrefix(line, "NumPeaks:"):
			_, val, _ := strings.Cut(line, ":")
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("msp line %d: bad Num peaks", lineNo)
			}
			wantPeaks = n
		case strings.Contains(line, ":"):
			// Unknown header: ignored for forward compatibility.
		default:
			p, err := parsePeakLine([]byte(line))
			if err != nil {
				return nil, fmt.Errorf("msp line %d: %v", lineNo, err)
			}
			cur.Peaks = append(cur.Peaks, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return spectra, nil
}
