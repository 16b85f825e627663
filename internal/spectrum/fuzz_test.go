package spectrum

import (
	"bytes"
	"strings"
	"testing"
)

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
	f.Fuzz(func(t *testing.T, data string) {
		// The byte-loop peak-line splitter and the unicode.IsSpace one
		// it stands in for cut every line alike, trimmed (as ReadMGF
		// passes them) or not.
		for _, line := range bytes.Split([]byte(data), []byte("\n")) {
			for _, l := range [][]byte{line, bytes.TrimSpace(line)} {
				mz, in, ok := splitPeakLine(l)
				umz, uin, uok := splitPeakLineUnicode(l)
				if ok != uok || !bytes.Equal(mz, umz) || !bytes.Equal(in, uin) {
					t.Fatalf("line %q: byte splitter (%q, %q, %v), unicode splitter (%q, %q, %v)", l, mz, in, ok, umz, uin, uok)
				}
			}
		}
		first, err := ReadMGF(strings.NewReader(data))
		second, err2 := ReadMGF(strings.NewReader(data))
		if (err == nil) != (err2 == nil) || len(first) != len(second) {
			t.Fatalf("non-deterministic parse: %d/%v vs %d/%v", len(first), err, len(second), err2)
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
