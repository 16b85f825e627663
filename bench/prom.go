//go:build linux

package main

import (
	"bytes"
	"fmt"

	"repro/internal/obsv"
)

// scrape is one /metrics reading flattened to sample → value, e.g.
// `oms_stage_seconds_total{stage="encode"}`.
type scrape map[string]float64

// parseScrape flattens Prometheus text exposition into a scrape.
func parseScrape(text []byte) (scrape, error) {
	fams, err := obsv.ParseProm(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := scrape{}
	for _, f := range fams {
		for k, v := range f.Samples {
			out[k] = v
		}
	}
	return out, nil
}

// metrics scrapes the daemon's /metrics.
func (d *daemon) metrics() (scrape, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(body)
}

// add accumulates what every sample grew by between two scrapes of
// one serving generation. Counters restart with every reloaded
// generation, so a difference across a reload is meaningless; callers
// scrape around windows that hold the generation fixed.
func (sum scrape) add(after, before scrape) {
	for k, v := range after {
		sum[k] += v - before[k]
	}
}

// serveLayer derives the serve.* and omsd.* per-layer values from the
// counter growth summed over a serve workload's open-loop latency
// windows (lat, whose client-side mean latency is clientMeanMS) and
// over its closed-loop throughput windows (thr).
func serveLayer(lat, thr scrape, clientMeanMS float64) map[string]float64 {
	out := map[string]float64{
		"hdc.rows_swept": lat["oms_search_rows_swept_total"] + thr["oms_search_rows_swept_total"],
	}
	if requests := lat["oms_requests_total"] + thr["oms_requests_total"]; requests > 0 {
		out["serve.rejected_ratio"] = (lat["oms_requests_rejected_total"] + thr["oms_requests_rejected_total"]) / requests
	}
	if batches := thr["oms_batches_total"]; batches > 0 {
		out["serve.batch_size_mean"] = thr["oms_requests_completed_total"] / batches
	}
	if completed := lat["oms_requests_completed_total"]; completed > 0 {
		stage := func(name string) float64 {
			return lat[`oms_stage_seconds_total{stage="`+name+`"}`] / completed * 1e3
		}
		out["serve.queue_wait_ms"] = stage("queue_wait")
		// What the client waited beyond the time omsd accounts for:
		// enqueue → scored, plus caller-side preparation.
		inside := lat["oms_request_latency_seconds_sum"]/completed*1e3 + stage("encode")
		out["omsd.edge_ms"] = clientMeanMS - inside
	}
	return out
}
