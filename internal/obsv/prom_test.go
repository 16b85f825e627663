package obsv

import (
	"math"
	"strings"
	"testing"
)

// TestPromWriterGolden pins the exact exposition bytes for a small
// metric set — the same shapes /metrics emits.
func TestPromWriterGolden(t *testing.T) {
	var sb strings.Builder
	w := NewPromWriter(&sb)
	w.Counter("oms_requests_total", "Requests admitted.", 42)
	w.Gauge("oms_queue_depth", "Requests waiting.", 3)
	w.Family("oms_rows_total", "Rows by tier.", "counter")
	w.Sample("oms_rows_total", Label("tier", "a"), 100)
	w.Sample("oms_rows_total", Label("tier", "b"), 7)
	w.Histogram("oms_batch_size", "Batch sizes.", []HistBucket{
		{Le: 1, Count: 2},
		{Le: 2, Count: 1},
		{Le: math.Inf(1), Count: 1},
	}, 9.5, "")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP oms_requests_total Requests admitted.
# TYPE oms_requests_total counter
oms_requests_total 42
# HELP oms_queue_depth Requests waiting.
# TYPE oms_queue_depth gauge
oms_queue_depth 3
# HELP oms_rows_total Rows by tier.
# TYPE oms_rows_total counter
oms_rows_total{tier="a"} 100
oms_rows_total{tier="b"} 7
# HELP oms_batch_size Batch sizes.
# TYPE oms_batch_size histogram
oms_batch_size_bucket{le="1"} 2
oms_batch_size_bucket{le="2"} 3
oms_batch_size_bucket{le="+Inf"} 4
oms_batch_size_sum 9.5
oms_batch_size_count 4
`
	if sb.String() != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestPromWriterHistogramNoInf checks a finite bucket list gets the
// +Inf bucket appended.
func TestPromWriterHistogramNoInf(t *testing.T) {
	var sb strings.Builder
	w := NewPromWriter(&sb)
	w.Histogram("h", "H.", []HistBucket{{Le: 10, Count: 4}}, 12, Label("stage", "sweep"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, wantLine := range []string{
		`h_bucket{le="10",stage="sweep"} 4`,
		`h_bucket{le="+Inf",stage="sweep"} 4`,
		`h_sum{stage="sweep"} 12`,
		`h_count{stage="sweep"} 4`,
	} {
		if !strings.Contains(out, wantLine+"\n") {
			t.Errorf("output missing %q:\n%s", wantLine, out)
		}
	}
}

// TestPromWriterDuplicateFamily checks reopening a family is a sticky
// error — the format requires contiguous families.
func TestPromWriterDuplicateFamily(t *testing.T) {
	var sb strings.Builder
	w := NewPromWriter(&sb)
	w.Counter("dup_total", "D.", 1)
	w.Counter("dup_total", "D.", 2)
	if err := w.Flush(); err == nil {
		t.Error("reopened family did not error")
	}
}

// TestLabelEscaping checks backslash, quote and newline escaping in
// label values.
func TestLabelEscaping(t *testing.T) {
	got := Label("path", "a\\b\"c\nd")
	want := `path="a\\b\"c\nd"`
	if got != want {
		t.Errorf("Label = %s, want %s", got, want)
	}
}

// TestLabelAllocs pins that a label with nothing to escape allocates
// only the string it returns.
func TestLabelAllocs(t *testing.T) {
	var got string
	allocs := testing.AllocsPerRun(100, func() { got = Label("partition", "17") })
	if got != `partition="17"` || allocs != 1 {
		t.Errorf("Label = %s in %v allocations, want partition=\"17\" in 1", got, allocs)
	}
}

// TestParsePromRoundTrip writes with PromWriter and reads back with
// ParseProm.
func TestParsePromRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewPromWriter(&sb)
	w.Counter("a_total", "A.", 5)
	w.Gauge("g", "G.", 1.25)
	w.Family("lab_total", "L.", "counter")
	w.Sample("lab_total", Label("k", "v"), 2)
	w.Histogram("h", "H.", []HistBucket{{Le: 1, Count: 1}, {Le: 2, Count: 2}}, 4, "")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	fams, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 4 {
		t.Fatalf("parsed %d families, want 4", len(fams))
	}
	if v, ok := fams["a_total"].Samples["a_total"]; !ok || v != 5 {
		t.Errorf("a_total = %v, %v", v, ok)
	}
	if fams["a_total"].Type != "counter" || fams["a_total"].Help != "A." {
		t.Errorf("a_total family = %+v", fams["a_total"])
	}
	if v, ok := fams["g"].Samples["g"]; !ok || v != 1.25 {
		t.Errorf("g = %v, %v", v, ok)
	}
	if v, ok := fams["lab_total"].Samples[`lab_total{k="v"}`]; !ok || v != 2 {
		t.Errorf("lab_total{k=v} = %v, %v", v, ok)
	}
	if v, ok := fams["h"].Samples[`h_bucket{le="2"}`]; !ok || v != 3 {
		t.Errorf("h_bucket{le=2} = %v, %v (want cumulative 3)", v, ok)
	}
	if v, ok := fams["h"].Samples["h_count"]; !ok || v != 3 {
		t.Errorf("h_count = %v, %v", v, ok)
	}
}

// TestParsePromErrors checks the parser rejects the malformed shapes
// the golden test relies on it catching.
func TestParsePromErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"sample before family", "x_total 1\n"},
		{"type without help", "# TYPE x_total counter\nx_total 1\n"},
		{"bad type", "# HELP x X.\n# TYPE x summary\nx 1\n"},
		{"bad value", "# HELP x X.\n# TYPE x gauge\nx notanumber\n"},
		{"duplicate sample", "# HELP x X.\n# TYPE x gauge\nx 1\nx 2\n"},
		{"duplicate family", "# HELP x X.\n# TYPE x gauge\nx 1\n# HELP x X.\n# TYPE x gauge\n"},
		{"sample outside family", "# HELP x X.\n# TYPE x gauge\ny 1\n"},
		{"histogram suffix on gauge", "# HELP x X.\n# TYPE x gauge\nx_bucket 1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseProm(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}
	// Histogram suffixes on a histogram family are fine.
	ok := "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 2\nh_count 1\n"
	if _, err := ParseProm(strings.NewReader(ok)); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}
}
