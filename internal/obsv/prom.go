package obsv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4): one HELP + TYPE header per metric family followed by its
// samples. Errors stick; check Flush.
type PromWriter struct {
	b    *bufio.Writer
	err  error
	fam  string
	typ  string
	seen map[string]bool
}

// NewPromWriter wraps w in an exposition writer.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{b: bufio.NewWriter(w), seen: map[string]bool{}}
}

// setErr records the first error.
func (p *PromWriter) setErr(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// Family opens a metric family: HELP and TYPE lines. typ is counter,
// gauge or histogram. Re-opening a family name is an error (the format
// requires all samples of a family to be contiguous).
func (p *PromWriter) Family(name, help, typ string) {
	if p.err != nil {
		return
	}
	if p.seen[name] {
		p.setErr(fmt.Errorf("obsv: metric family %q opened twice", name))
		return
	}
	p.seen[name] = true
	p.fam, p.typ = name, typ
	_, err := fmt.Fprintf(p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	p.setErr(err)
}

// Sample writes one sample of the open family. labels is the
// pre-rendered label body without braces (use Label/Labels), empty for
// an unlabelled sample.
func (p *PromWriter) Sample(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(p.b, "%s %s\n", name, formatPromValue(v))
	} else {
		_, err = fmt.Fprintf(p.b, "%s{%s} %s\n", name, labels, formatPromValue(v))
	}
	p.setErr(err)
}

// Counter writes a whole single-sample counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Family(name, help, "counter")
	p.Sample(name, "", v)
}

// Gauge writes a whole single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, help, "gauge")
	p.Sample(name, "", v)
}

// HistBucket is one non-cumulative histogram bucket: Count
// observations with value in (previous Le, Le].
type HistBucket struct {
	Le    float64
	Count uint64
}

// Histogram writes a whole histogram family from non-cumulative
// buckets: cumulative le samples (a trailing +Inf bucket is added when
// the last Le is finite), then _sum and _count. extraLabels, when
// non-empty, is appended to every sample's label set.
func (p *PromWriter) Histogram(name, help string, buckets []HistBucket, sum float64, extraLabels string) {
	p.Family(name, help, "histogram")
	var cum uint64
	sawInf := false
	for _, bk := range buckets {
		cum += bk.Count
		le := formatPromValue(bk.Le)
		if math.IsInf(bk.Le, +1) {
			le = "+Inf"
			sawInf = true
		}
		p.Sample(name+"_bucket", joinLabels(Label("le", le), extraLabels), float64(cum))
	}
	if !sawInf {
		p.Sample(name+"_bucket", joinLabels(Label("le", "+Inf"), extraLabels), float64(cum))
	}
	p.Sample(name+"_sum", extraLabels, sum)
	p.Sample(name+"_count", extraLabels, float64(cum))
}

// Flush flushes the writer and returns the first error.
func (p *PromWriter) Flush() error {
	if err := p.b.Flush(); err != nil {
		p.setErr(err)
	}
	return p.err
}

// labelEscaper escapes a label value; one for all calls, since building
// a Replacer costs more than most values it escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one escaped label pair k="v". A value with nothing to
// escape costs only the result.
func Label(k, v string) string {
	return k + `="` + labelEscaper.Replace(v) + `"`
}

// joinLabels joins pre-rendered label bodies, skipping empties.
func joinLabels(parts ...string) string {
	out := ""
	for _, s := range parts {
		if s == "" {
			continue
		}
		if out != "" {
			out += ","
		}
		out += s
	}
	return out
}

// formatPromValue renders a sample value: integers without exponent,
// everything else in shortest float form.
func formatPromValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name string
	Help string
	Type string
	// Samples maps the sample's full name + rendered label body (e.g.
	// `oms_batch_size_bucket{le="2"}`) to its value, preserving
	// duplicates as an error at parse time.
	Samples map[string]float64
}

// ParseProm parses text exposition output into metric families,
// validating the structural rules the /metrics golden test relies on:
// every sample belongs to a family whose HELP and TYPE lines precede
// it, TYPE is one of counter/gauge/histogram/untyped, sample values
// parse as floats, and no sample repeats. It is a test oracle for this
// repo's own exporter, not a general Prometheus parser.
func ParseProm(r io.Reader) (map[string]*PromFamily, error) {
	fams := map[string]*PromFamily{}
	var cur *PromFamily
	help := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(text, "# HELP "); ok {
			name, h, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed HELP line %q", line, text)
			}
			help[name] = h
			continue
		}
		if rest, ok := strings.CutPrefix(text, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validPromType(typ) {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", line, text)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("line %d: family %q declared twice", line, name)
			}
			h, ok := help[name]
			if !ok {
				return nil, fmt.Errorf("line %d: TYPE for %q without preceding HELP", line, name)
			}
			cur = &PromFamily{Name: name, Help: h, Type: typ, Samples: map[string]float64{}}
			fams[name] = cur
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // comment
		}
		// Sample line: name[{labels}] value
		key, val, ok := splitPromSample(text)
		if !ok {
			return nil, fmt.Errorf("line %d: malformed sample %q", line, text)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: sample value %q: %v", line, val, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if cur == nil || !sampleOfFamily(base, cur) {
			return nil, fmt.Errorf("line %d: sample %q outside its family's TYPE block", line, key)
		}
		if _, dup := cur.Samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", line, key)
		}
		cur.Samples[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// splitPromSample splits a sample line at the value, respecting label
// bodies that contain spaces inside quoted values.
func splitPromSample(text string) (key, val string, ok bool) {
	end := strings.LastIndexByte(text, ' ')
	if end <= 0 || end == len(text)-1 {
		return "", "", false
	}
	return strings.TrimSpace(text[:end]), text[end+1:], true
}

// sampleOfFamily reports whether a sample base name belongs to a
// family: the name itself, or the histogram suffixes.
func sampleOfFamily(base string, f *PromFamily) bool {
	if base == f.Name {
		return true
	}
	if f.Type == "histogram" {
		return base == f.Name+"_bucket" || base == f.Name+"_sum" || base == f.Name+"_count"
	}
	return false
}

// validPromType reports whether typ is an exposition metric type this
// exporter emits.
func validPromType(typ string) bool {
	switch typ {
	case "counter", "gauge", "histogram", "untyped":
		return true
	}
	return false
}
