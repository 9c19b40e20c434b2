package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	flex "github.com/flex-eda/flex"
)

// request is one POST /v1/legalize of a workload's request stream.
type request struct {
	key   string // identity of the request's input; equal keys = equal input
	path  string // URL path and query
	ctype string
	body  []byte
	jobs  int    // legalization jobs the request carries
	kind  string // eco_edits: "edit" (new edit) or "repeat" (an earlier edit again)

	edits []flex.Edit // eco_edits: the edit batch, for the reference re-run
}

// row is the part of one NDJSON result line the harness reads.
type row struct {
	Index          int     `json:"index"`
	Error          string  `json:"error"`
	Skipped        bool    `json:"skipped"`
	Legal          *bool   `json:"legal"`
	Violations     int     `json:"violations"`
	Movable        int     `json:"movable"`
	AveDis         float64 `json:"aveDis"`
	MaxDis         float64 `json:"maxDis"`
	ModeledSeconds float64 `json:"modeledSeconds"`
	WallMs         float64 `json:"wallMs"`
	SchedWaitMs    float64 `json:"schedWaitMs"`
	DeviceWaitMs   float64 `json:"deviceWaitMs"`
	DeviceHoldMs   float64 `json:"deviceHoldMs"`
	Shards         int     `json:"shards"`
	LayoutHash     string  `json:"layoutHash"`
}

// response is one sent request's outcome.
type response struct {
	req     *request
	start   time.Time
	latency time.Duration // send to reading the "done" line
	status  int
	rows    []row
	done    bool
	err     error
	// mismatch is set by verification when a row disagrees with the
	// in-process reference.
	mismatch string
}

// failure names why the response failed, or "" when it succeeded:
// transport errors, non-200 statuses, missing summary lines, error or
// skipped rows, and correctness-check mismatches all count.
func (r *response) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d", r.status)
	case !r.done:
		return "stream ended without a done line"
	case len(r.rows) != r.req.jobs:
		return fmt.Sprintf("%d result rows for %d jobs", len(r.rows), r.req.jobs)
	case r.mismatch != "":
		return r.mismatch
	}
	for _, rw := range r.rows {
		if rw.Error != "" || rw.Skipped {
			return fmt.Sprintf("job %d: %s", rw.Index, rw.Error)
		}
	}
	return ""
}

// maxWallMs is the slowest job's server-side wall time.
func (r *response) maxWallMs() float64 {
	w := 0.0
	for _, rw := range r.rows {
		w = max(w, rw.WallMs)
	}
	return w
}

// newHTTPClient returns a client holding at most conns connections to the
// server, kept alive across requests.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send POSTs one request and reads its NDJSON stream to the summary line.
func send(ctx context.Context, hc *http.Client, base string, req *request) response {
	r := response{req: req}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		r.err = err
		return r
	}
	hr.Header.Set("Content-Type", req.ctype)
	r.start = time.Now()
	resp, err := hc.Do(hr)
	if err != nil {
		r.err = err
		r.latency = time.Since(r.start)
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		r.latency = time.Since(r.start)
		return r
	}
	r.rows, r.done, r.err = readRows(resp.Body)
	r.latency = time.Since(r.start)
	return r
}

// readRows parses an NDJSON result stream: result rows, then the summary
// line carrying "done": true.
func readRows(body io.Reader) (rows []row, done bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		// The summary line reuses some row field names with other types
		// ("skipped" is a count there), so spot it before decoding a row.
		var sum struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
			return rows, false, fmt.Errorf("bad NDJSON line: %w", err)
		}
		if sum.Done {
			return rows, true, nil
		}
		var rw row
		if err := json.Unmarshal(sc.Bytes(), &rw); err != nil {
			return rows, false, fmt.Errorf("bad NDJSON line: %w", err)
		}
		rows = append(rows, rw)
	}
	return rows, false, sc.Err()
}

// window is one timed closed-loop run: every response, and the interval
// from the first send to the last completion.
type window struct {
	responses  []response
	start, end time.Time
}

// wall is the window's length.
func (w *window) wall() time.Duration { return w.end.Sub(w.start) }

// jobs counts the jobs of successful responses.
func (w *window) jobs() int {
	n := 0
	for i := range w.responses {
		if w.responses[i].failure() == "" {
			n += w.responses[i].req.jobs
		}
	}
	return n
}

// runWindow drives clients closed-loop for dur: each client sends its next
// request only once the previous one completed, and stops sending at the
// deadline; requests in flight then finish and count.
func runWindow(ctx context.Context, hc *http.Client, base string, clients int, dur time.Duration, next func(client, seq int) *request) window {
	w := window{start: time.Now()}
	deadline := w.start.Add(dur)
	per := make([][]response, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				per[c] = append(per[c], send(ctx, hc, base, next(c, seq)))
			}
		}(c)
	}
	wg.Wait()
	w.end = w.start
	for _, rs := range per {
		for _, r := range rs {
			if end := r.start.Add(r.latency); end.After(w.end) {
				w.end = end
			}
		}
		w.responses = append(w.responses, rs...)
	}
	return w
}

// serverStats is the part of GET /v1/stats the harness reads.
type serverStats struct {
	DeviceAcquires  int64 `json:"deviceAcquires"`
	DeviceContended int64 `json:"deviceContended"`
	Incremental     int64 `json:"incremental"`
	Fallbacks       int64 `json:"fallbacks"`
	OutcomeHits     int64 `json:"outcomeHits"`
	OutcomeMisses   int64 `json:"outcomeMisses"`
	OutcomeBytes    int64 `json:"outcomeBytes"`
	Fleet           *struct {
		Nodes []struct {
			State  string `json:"state"`
			Routed int64  `json:"routed"`
		} `json:"nodes"`
		Retried  int64 `json:"retried"`
		Excluded int64 `json:"excluded"`
	} `json:"fleet"`
}

// snapshot is one process's counters at a window boundary.
type snapshot struct {
	stats   serverStats
	metrics string // GET /metrics text
	cpu     time.Duration
}

// take reads a process's /v1/stats, /metrics and CPU time.
func take(ctx context.Context, hc *http.Client, p *proc) (snapshot, error) {
	var s snapshot
	if err := getJSON(ctx, hc, p.url+"/v1/stats", &s.stats); err != nil {
		return s, err
	}
	body, err := getBody(ctx, hc, p.url+"/metrics")
	if err != nil {
		return s, err
	}
	s.metrics = string(body)
	s.cpu, err = p.cpu()
	return s, err
}

// histogram is a Prometheus histogram's cumulative bucket counts by upper
// bound (le), summed over every series of the family.
type histogram map[float64]float64

// parseHistogram extracts family's buckets from Prometheus text exposition.
func parseHistogram(text, family string) histogram {
	h := histogram{}
	prefix := family + "_bucket{"
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndexByte(line, ' ')
		if i < 0 || j < i {
			continue
		}
		leText := line[i+4:]
		leText = leText[:strings.IndexByte(leText, '"')]
		le := math.Inf(1)
		if leText != "+Inf" {
			v, err := strconv.ParseFloat(leText, 64)
			if err != nil {
				continue
			}
			le = v
		}
		n, err := strconv.ParseFloat(line[j+1:], 64)
		if err != nil {
			continue
		}
		h[le] += n
	}
	return h
}

// sub returns h minus an earlier snapshot of the same histogram: the
// observations made between the two.
func (h histogram) sub(earlier histogram) histogram {
	d := histogram{}
	for le, n := range h {
		d[le] = n - earlier[le]
	}
	return d
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it, as Prometheus' histogram_quantile does. An empty
// histogram yields 0; a quantile in the +Inf bucket yields the highest
// finite bound.
func (h histogram) quantile(q float64) float64 {
	les := make([]float64, 0, len(h))
	for le := range h {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || h[les[len(les)-1]] == 0 {
		return 0
	}
	total := h[les[len(les)-1]]
	target := q * total
	prevLE, prevN := 0.0, 0.0
	for _, le := range les {
		n := h[le]
		if n >= target {
			if math.IsInf(le, 1) {
				return prevLE
			}
			if n == prevN {
				return le
			}
			return prevLE + (le-prevLE)*(target-prevN)/(n-prevN)
		}
		prevLE, prevN = le, n
	}
	return prevLE
}
