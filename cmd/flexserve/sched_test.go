package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	flex "github.com/flex-eda/flex"
)

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/legalize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestUnknownJSONFieldRejected is the DisallowUnknownFields satellite: a
// typoed job field gets a 400 naming the offending field instead of a
// silently ignored knob.
func TestUnknownJSONFieldRejected(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"prioritee":9}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "prioritee") {
		t.Fatalf("error does not name the offending field: %s", body)
	}
	// Request-level typos are caught too.
	resp = postJSON(t, ts.URL, `{"jobz":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("request-level typo: status %d, want 400", resp.StatusCode)
	}
}

// TestSchedulingFieldsAccepted pins the wire surface: priority, client and
// deadlineMs ride a job to completion, and the result line carries the
// scheduling observations.
func TestSchedulingFieldsAccepted(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"priority":7,"client":"acme","deadlineMs":60000,"engine":"flex"}]}`)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	if len(results) != 1 || sum.Errors != 0 {
		t.Fatalf("results %+v summary %+v", results, sum)
	}
	if results[0].Legal == nil || !*results[0].Legal {
		t.Fatalf("job did not legalize: %+v", results[0])
	}
}

// TestSchedulingFieldValidation pins the 400s: out-of-range priority and
// negative deadlines are rejected with the job index.
func TestSchedulingFieldValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"priority":101}]}`,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"priority":-101}]}`,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"deadlineMs":-1}]}`,
	} {
		resp := postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestExpiredDeadlineSurfacesInResult pins the deadline path end to end
// over HTTP: a 1 ms deadline on a queued job expires and the result line
// reports the deadline error instead of an outcome.
func TestExpiredDeadlineSurfacesInResult(t *testing.T) {
	ts := newTestServer(t, flex.WithWorkers(1), flex.WithCacheBytes(32<<20))
	// Two jobs on one worker: the higher-priority first job occupies it
	// (EDF would otherwise run the deadline job first), so the doomed
	// job's 1 ms deadline expires while it queues.
	resp := postJSON(t, ts.URL,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"engine":"flex","priority":5},`+
			`{"design":"fft_a_md2","scale":0.01,"engine":"flex","deadlineMs":1,"tag":"doomed"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	results, sum := decodeNDJSON(t, bufio.NewScanner(resp.Body))
	var doomed *resultLine
	for i := range results {
		if results[i].Tag == "doomed" {
			doomed = &results[i]
		}
	}
	if doomed == nil {
		t.Fatalf("doomed job missing: %+v", results)
	}
	if doomed.Error == "" || !strings.Contains(doomed.Error, "deadline") {
		t.Fatalf("doomed job error = %q, want a deadline error", doomed.Error)
	}
	if sum.Errors != 1 {
		t.Fatalf("summary %+v, want 1 error", sum)
	}
}

// TestPerClient429 pins per-tenant shedding: a client over its admission
// bound gets a 429 naming it, with a Retry-After header, while another
// client's identical request is served.
func TestPerClient429(t *testing.T) {
	ts := newTestServer(t,
		flex.WithWorkers(2), flex.WithCacheBytes(32<<20), flex.WithClientQueueDepth(2))
	resp := postJSON(t, ts.URL,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"client":"greedy"},`+
			`{"design":"fft_a_md2","scale":0.01,"client":"greedy"},`+
			`{"design":"fft_a_md2","scale":0.01,"client":"greedy"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("per-client 429 missing Retry-After")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "greedy") {
		t.Fatalf("429 does not name the client: %s", body)
	}
	// A polite client still fits.
	resp = postJSON(t, ts.URL,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"client":"polite"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling client status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	// The rejection is visible in stats.
	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ClientOverloaded != 1 || stats.ClientQueueDepth != 2 {
		t.Fatalf("stats %+v, want clientOverloaded=1 depth=2", stats)
	}
}

// TestStatsExposeSchedulerSurface pins the new /v1/stats fields.
func TestStatsExposeSchedulerSurface(t *testing.T) {
	ts := newTestServer(t,
		flex.WithWorkers(2), flex.WithCacheBytes(32<<20),
		flex.WithScheduler(flex.SchedulerPriority),
		flex.WithClientQuota(4),
		flex.WithReconfigCost(time.Millisecond))
	resp := postJSON(t, ts.URL,
		`{"jobs":[{"design":"fft_a_md2","scale":0.01,"engine":"flex","priority":3}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler != "priority" || stats.ClientQuota != 4 {
		t.Fatalf("scheduler surface missing: %+v", stats)
	}
	if stats.QueuedByPriority == nil {
		t.Fatal("queuedByPriority missing (must serialize as an object even when empty)")
	}
	if stats.ReconfigMs != 1 {
		t.Fatalf("reconfigMs = %v, want 1", stats.ReconfigMs)
	}
	if stats.Reconfigs < 1 {
		t.Fatalf("FLEX job charged no reconfiguration: %+v", stats)
	}
}

// TestRawPayloadSchedulingParams pins the non-JSON path: priority/client/
// deadlineMs query parameters are parsed and validated.
func TestRawPayloadSchedulingParams(t *testing.T) {
	ts := newTestServer(t)
	layout, err := flex.GenerateCustom(100, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := flex.WriteLayout(&sb, layout); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/legalize?engine=mgl&priority=5&client=acme&deadlineMs=60000",
		"text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	io.Copy(io.Discard, resp.Body)
	resp2, err := http.Post(ts.URL+"/v1/legalize?priority=9999",
		"text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range priority: status %d, want 400", resp2.StatusCode)
	}
}

// TestHugeDeadlineRejected: a deadlineMs whose duration would overflow
// time.Duration (and wrap into the past) is a 400 on both request paths,
// while the largest one that fits is accepted and the job runs.
func TestHugeDeadlineRejected(t *testing.T) {
	ts := newTestServer(t)
	layout, err := flex.GenerateCustom(100, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := flex.WriteLayout(&sb, layout); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("deadlineMs must be in [0, %d]", maxDeadlineMs)
	post := func(path, ctype, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, ms := range []int64{maxDeadlineMs + 1, math.MaxInt64} {
		jsonBody := fmt.Sprintf(`{"jobs":[{"design":"fft_a_md2","scale":0.01,"engine":"mgl","deadlineMs":%d}]}`, ms)
		for _, c := range []struct{ path, ctype, body string }{
			{"/v1/legalize", "application/json", jsonBody},
			{fmt.Sprintf("/v1/legalize?engine=mgl&deadlineMs=%d", ms), "text/plain", sb.String()},
		} {
			if code, body := post(c.path, c.ctype, c.body); code != http.StatusBadRequest || !strings.Contains(body, want) {
				t.Fatalf("%s deadlineMs=%d: status %d %q, want 400 naming %q", c.ctype, ms, code, body, want)
			}
		}
	}
	jsonBody := fmt.Sprintf(`{"jobs":[{"design":"fft_a_md2","scale":0.01,"engine":"mgl","deadlineMs":%d}]}`, maxDeadlineMs)
	for _, c := range []struct{ path, ctype, body string }{
		{"/v1/legalize", "application/json", jsonBody},
		{fmt.Sprintf("/v1/legalize?engine=mgl&deadlineMs=%d", maxDeadlineMs), "text/plain", sb.String()},
	} {
		code, body := post(c.path, c.ctype, c.body)
		results, _ := decodeNDJSON(t, bufio.NewScanner(strings.NewReader(body)))
		if code != http.StatusOK || len(results) != 1 || results[0].Error != "" {
			t.Fatalf("%s deadlineMs=%d: status %d, results %+v; want the job to run", c.ctype, maxDeadlineMs, code, results)
		}
	}
}
