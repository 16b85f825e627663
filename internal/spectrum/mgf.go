package spectrum

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
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

// mgfBlockSize is how much text one parseMGF call is handed: enough to
// bury a block's fixed costs, little enough that GOMAXPROCS+1 blocks in
// flight are no memory to speak of.
const mgfBlockSize = 1 << 20

// ReadMGF parses all spectra from an MGF stream. Unknown header lines
// are ignored; malformed peak lines or structure produce an error with
// the offending line number.
func ReadMGF(r io.Reader) ([]*Spectrum, error) {
	return readMGF(r, mgfBlockSize)
}

// ParseMGF parses MGF text that is all in memory — a request body —
// as ReadMGF parses it, in place on the caller's goroutine. The spectra
// keep no reference to text, so the caller may reuse it at once.
func ParseMGF(text []byte) ([]*Spectrum, error) {
	return parseMGF(text, 0, true)
}

// readMGF reads r in blocks of about blockSize bytes, each cut where a
// line is exactly BEGIN IONS: there the parser's state does not depend
// on the text before — no block is open, or the line is the "nested
// BEGIN IONS" error. Input that fits one block (a request body, a small
// file) is parsed on the caller's goroutine; otherwise blocks are parsed
// GOMAXPROCS at a time and joined in input order, the earliest error
// winning, with at most GOMAXPROCS+1 blocks of text alive at once. A
// read error comes after the errors of the whole blocks before it; the
// cut-off text it leaves is not parsed.
func readMGF(r io.Reader, blockSize int) ([]*Spectrum, error) {
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < blockSize {
		blockSize = l.Len() + 1 // the spare byte lets the first read see EOF
	}
	type part struct {
		spectra []*Spectrum
		err     error
	}
	var (
		parts   []*part
		wg      sync.WaitGroup
		sem     = make(chan struct{}, runtime.GOMAXPROCS(0))
		failed  atomic.Bool // a block has an error: the text after it cannot matter
		readErr error
		buf     = make([]byte, blockSize)
		fill    int // bytes of buf that hold text
		lines   int // lines of input before buf
	)
	for !failed.Load() {
		n, err := io.ReadFull(r, buf[fill:])
		fill += n
		cut, last := fill, err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !last {
			readErr = err
			break
		}
		if !last {
			if cut = lastBeginIONS(buf[:fill]); cut == 0 {
				buf = append(buf, make([]byte, len(buf))...) // a spectrum longer than the buffer
				continue
			}
		}
		block, tail, baseLine := buf[:cut], buf[cut:fill], lines
		if last && len(parts) == 0 {
			return ParseMGF(block)
		}
		p := new(part)
		parts = append(parts, p)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.spectra, p.err = parseMGF(block, baseLine, last); p.err != nil {
				failed.Store(true)
			}
			<-sem
		}()
		if last {
			break
		}
		lines += bytes.Count(block, []byte("\n"))
		buf = make([]byte, max(blockSize, len(tail)))
		fill = copy(buf, tail)
	}
	wg.Wait()
	var spectra []*Spectrum
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		spectra = append(spectra, p.spectra...)
	}
	if readErr != nil {
		return nil, readErr
	}
	return spectra, nil
}

// lastBeginIONS returns where the last complete line of text that
// starts at column 0 and that the parser reads as BEGIN IONS begins, or
// 0 when there is none past the first line.
func lastBeginIONS(text []byte) int {
	for {
		i := bytes.LastIndex(text, []byte("\nBEGIN IONS"))
		if i < 0 {
			return 0
		}
		if line, _, whole := bytes.Cut(text[i+1:], []byte("\n")); whole && string(bytes.TrimSpace(line)) == "BEGIN IONS" {
			return i + 1
		}
		text = text[:i+1]
	}
}

// parseMGF parses one block of MGF text in place: baseLine lines come
// before it, no IONS block is open where it starts, and last says the
// input ends with it. All its peaks go into one arena — the block's
// line count bounds them — and each spectrum takes a cap-limited piece,
// so appending to one spectrum's Peaks copies them instead of writing
// over its neighbour's. Header values are read from the bytes too; only
// TITLE and SEQ become strings, copies that the spectrum keeps.
func parseMGF(block []byte, baseLine int, last bool) ([]*Spectrum, error) {
	var (
		spectra []*Spectrum
		arena   = make([]Peak, 0, bytes.Count(block, []byte("\n"))+1)
		cur     *Spectrum
		first   int // cur's first peak in arena
		lineNo  = baseLine
	)
	for line, rest := []byte(nil), block; len(rest) > 0; {
		lineNo++
		// Inside an IONS block, a peak line of two plain decimals — nearly
		// every line of a library — is read straight from the text.
		if cur != nil {
			if p, n, ok := scanPeakLine(rest); ok {
				arena = append(arena, p)
				rest = rest[n:]
				continue
			}
		}
		// Any other line stays bytes too: it is cut, trimmed and split
		// in place.
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		switch {
		case string(line) == "BEGIN IONS":
			if cur != nil {
				return nil, fmt.Errorf("mgf line %d: nested BEGIN IONS", lineNo)
			}
			cur, first = &Spectrum{Charge: 1}, len(arena)
		case string(line) == "END IONS":
			if cur == nil {
				return nil, fmt.Errorf("mgf line %d: END IONS without BEGIN", lineNo)
			}
			if n := len(arena); n > first {
				cur.Peaks = arena[first:n:n]
				cur.SortPeaks()
			}
			spectra = append(spectra, cur)
			cur = nil
		case cur == nil:
			// Global headers outside blocks are permitted and ignored.
		case bytes.IndexByte(line, '=') >= 0:
			key, val, _ := bytes.Cut(line, []byte("="))
			if err := applyHeader(cur, key, val); err != nil {
				return nil, fmt.Errorf("mgf line %d: %v", lineNo, err)
			}
		default:
			p, err := parsePeakLine(line)
			if err != nil {
				return nil, fmt.Errorf("mgf line %d: %v", lineNo, err)
			}
			arena = append(arena, p)
		}
	}
	if cur != nil && last {
		return nil, fmt.Errorf("mgf: unterminated IONS block at EOF")
	} else if cur != nil { // the line the block was cut at
		return nil, fmt.Errorf("mgf line %d: nested BEGIN IONS", lineNo+1)
	}
	return spectra, nil
}

// applyHeader sets the field a KEY=val header line names; the key
// matches in any case, as strings.ToUpper folds it.
func applyHeader(s *Spectrum, key, val []byte) error {
	var buf [len("PEPMASS")]byte
	switch string(upperKey(buf[:0], key)) {
	case "TITLE":
		s.ID = string(val)
	case "PEPMASS":
		// PEPMASS may carry "mz [intensity]".
		field := bytes.TrimLeftFunc(val, unicode.IsSpace)
		if i := bytes.IndexFunc(field, unicode.IsSpace); i >= 0 {
			field = field[:i]
		}
		if len(field) == 0 {
			return fmt.Errorf("empty PEPMASS")
		}
		mz, err := strconv.ParseFloat(string(field), 64)
		if err != nil {
			return fmt.Errorf("bad PEPMASS %q: %v", val, err)
		}
		s.PrecursorMZ = mz
	case "CHARGE":
		v := bytes.TrimSuffix(bytes.TrimSpace(val), []byte("+"))
		v = bytes.TrimSuffix(v, []byte("-"))
		z, err := strconv.Atoi(string(v))
		if err != nil {
			return fmt.Errorf("bad CHARGE %q: %v", val, err)
		}
		if z < 1 {
			z = 1
		}
		s.Charge = z
	case "SEQ":
		s.Peptide = string(val)
	case "DECOY":
		s.IsDecoy = string(val) == "1" || bytes.EqualFold(val, []byte("true"))
	}
	return nil
}

// upperKey appends key upper-cased as strings.ToUpper would to dst, in
// place when key is ASCII no longer than cap(dst); an ASCII key longer
// than that — longer than any header name the reader knows — comes
// back empty.
func upperKey(dst, key []byte) []byte {
	for i, c := range key {
		switch {
		case c >= utf8.RuneSelf:
			return []byte(strings.ToUpper(string(key)))
		case i == cap(dst):
			return dst[:0]
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// parsePeakLine parses the first two whitespace-separated fields of a
// trimmed line as m/z and intensity; further fields are ignored. Two
// plain decimals set off by spaces or tabs — a well-formed line — are
// read in one pass that allocates nothing; any other line is split at
// whatever unicode.IsSpace calls a space and converted by strconv,
// which reads those decimals to the same bits.
func parsePeakLine(line []byte) (Peak, error) {
	blank := func(i int) bool { return i < len(line) && (line[i] == ' ' || line[i] == '\t') }
	if mz, i, ok := scanDecimal(line, 0); ok && blank(i) {
		for blank(i) {
			i++
		}
		if in, j, ok := scanDecimal(line, i); ok && (j == len(line) || blank(j)) {
			return Peak{MZ: mz, Intensity: in}, nil
		}
	}
	i := bytes.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return Peak{}, fmt.Errorf("bad peak line %q", line)
	}
	mzField, inField := line[:i], bytes.TrimLeftFunc(line[i:], unicode.IsSpace)
	if j := bytes.IndexFunc(inField, unicode.IsSpace); j >= 0 {
		inField = inField[:j]
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

// scanPeakLine reads the line text starts with when it is two plain
// decimals set off by spaces or tabs and followed only by spaces, tabs
// or a CR, in one forward walk: scanDecimal, blanks, scanDecimal, the
// newline. n counts the line with its newline. Such a line is one that
// TrimSpace leaves as two fields for parsePeakLine's exact pass, with
// the same digits on either side of the blanks, so it reads to the
// same peak; ok is false on every other line, which the caller cuts
// and reads as before — the only lines that can be something other
// than a peak (blank, '#', '=', BEGIN or END IONS) or an error.
func scanPeakLine(text []byte) (p Peak, n int, ok bool) {
	blank := func(i int) bool { return i < len(text) && (text[i] == ' ' || text[i] == '\t') }
	mz, i, ok := scanDecimal(text, 0)
	if !ok || !blank(i) {
		return Peak{}, 0, false
	}
	for blank(i) {
		i++
	}
	in, i, ok := scanDecimal(text, i)
	if !ok {
		return Peak{}, 0, false
	}
	for ; i < len(text); i++ {
		switch text[i] {
		case ' ', '\t', '\r':
		case '\n':
			return Peak{MZ: mz, Intensity: in}, i + 1, true
		default:
			return Peak{}, 0, false
		}
	}
	return Peak{MZ: mz, Intensity: in}, i, true
}

// scanDecimal reads the unsigned plain decimal at line[i:] — digits
// with at most one point — and returns its value and where it stops.
// ok is Clinger's exact case: at most 18 digits that, read as an
// integer, stay under 2^53, at most 22 of them after the point. Such a
// decimal is that integer over a power of ten, both exact float64s, so
// the one correctly rounded division is what strconv.ParseFloat
// returns (its atof64exact is this very operation). Whatever stops the
// scan is the caller's to judge: a sign, an exponent, inf, nan, hex,
// '_' or a second point all leave it short of the field's end.
func scanDecimal(line []byte, i int) (v float64, end int, ok bool) {
	var m uint64
	start := i
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		m = m*10 + uint64(line[i]-'0')
	}
	digits, frac := i-start, 0
	if i < len(line) && line[i] == '.' {
		i++
		for ; i < len(line) && line[i]-'0' <= 9; i++ {
			m = m*10 + uint64(line[i]-'0')
		}
		frac = i - start - digits - 1
		digits += frac
	}
	if digits == 0 || digits > 18 || m >= 1<<53 || frac > 22 {
		return 0, i, false
	}
	return float64(m) / exactPow10[frac], i, true
}

// exactPow10 holds 10^0 .. 10^22, the powers of ten a float64 holds
// exactly.
var exactPow10 = [23]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
