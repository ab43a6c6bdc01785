package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP ccserved_requests_total HTTP requests received.
# TYPE ccserved_requests_total counter
ccserved_requests_total 41
# TYPE schemacache_bytes gauge
schemacache_bytes 1048576

gen_xsd_cache_hit_total 7
http_requests{code="200",route="/v1/generate"} 12 1700000000000
`

const scrapeAfter = `ccserved_requests_total 142
schemacache_bytes 524288
gen_xsd_cache_hit_total 7
http_requests{code="200",route="/v1/generate"} 112
schemacache_evictions_total 3
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	want := metricSet{
		"ccserved_requests_total":                        41,
		"schemacache_bytes":                              1048576,
		"gen_xsd_cache_hit_total":                        7,
		`http_requests{code="200",route="/v1/generate"}`: 12,
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"ccserved_requests_total\n",
		"ccserved_requests_total abc\n",
		"ccserved_requests_total 1 2 3\n",
		"x{a=\"1\" 3\n",
		"dup 1\ndup 2\n",
	} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) succeeded, want an error", bad)
		}
	}
}

func TestDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for k, v := range map[string]float64{
		"ccserved_requests_total":                        101,
		"schemacache_bytes":                              -524288, // a gauge may fall
		"gen_xsd_cache_hit_total":                        0,
		`http_requests{code="200",route="/v1/generate"}`: 100,
		"schemacache_evictions_total":                    3, // registered between scrapes
		"missing_everywhere":                             0,
	} {
		if d[k] != v {
			t.Errorf("delta %s = %v, want %v", k, d[k], v)
		}
	}
	if got := d.sum("ccserved_requests_total", "schemacache_evictions_total", "missing_everywhere"); got != 104 {
		t.Errorf("sum = %v, want 104", got)
	}
	gone := delta(metricSet{"only_before": 5}, metricSet{})
	if gone["only_before"] != -5 {
		t.Errorf("a sample missing from the later scrape must read as zero there, got delta %v", gone["only_before"])
	}
}
