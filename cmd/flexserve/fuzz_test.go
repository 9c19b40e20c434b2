package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	flex "github.com/flex-eda/flex"
)

// FuzzParseJobs holds flexserve's front door to its contract on arbitrary
// requests. The fuzz input picks a content type (even: JSON, odd: a raw
// flexpl payload), a query string and a body. parseJobs must never panic,
// and every job it accepts must have exactly one of a layout, a design or
// a base; shards in [0, max]; halo and threads >= 0; priority within ±100;
// for a design job, a scale in (0, max-scale]; a deadline, if set, in the
// future; and a layout that re-encodes and decodes to itself.
func FuzzParseJobs(f *testing.F) {
	svc := flex.NewService(flex.WithWorkers(1))
	defer svc.Close()
	s := newServer(svc, nil, 8<<20, 0.05, 8)
	f.Fuzz(func(t *testing.T, ctype uint8, query string, body []byte) {
		ct := "application/json"
		if ctype%2 == 1 {
			ct = "text/plain"
		}
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/legalize", RawQuery: query},
			Header: http.Header{"Content-Type": {ct}},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		now := time.Now()
		jobs, _, err := s.parseJobs(r)
		if err != nil {
			return
		}
		if len(jobs) == 0 {
			t.Fatal("accepted a request with no jobs")
		}
		for i, j := range jobs {
			sources := 0
			for _, set := range []bool{j.Layout != nil, j.Design != "", j.BaseHash != ""} {
				if set {
					sources++
				}
			}
			switch {
			case sources != 1:
				t.Fatalf("job %d: %d of layout, design and base set", i, sources)
			case j.Shards < 0 || j.Shards > s.maxShards:
				t.Fatalf("job %d: shards %d outside [0, %d]", i, j.Shards, s.maxShards)
			case j.ShardHalo < 0 || j.Options.Threads < 0:
				t.Fatalf("job %d: halo %d, threads %d", i, j.ShardHalo, j.Options.Threads)
			case j.Priority < -maxPriority || j.Priority > maxPriority:
				t.Fatalf("job %d: priority %d outside ±%d", i, j.Priority, maxPriority)
			case j.Design != "" && (j.Scale <= 0 || j.Scale > s.maxScale):
				t.Fatalf("job %d: design scale %g outside (0, %g]", i, j.Scale, s.maxScale)
			case !j.Deadline.IsZero() && !j.Deadline.After(now):
				t.Fatalf("job %d: deadline %v is not in the future", i, j.Deadline)
			}
			if j.Layout != nil {
				var first, second strings.Builder
				if err := flex.WriteLayout(&first, j.Layout); err != nil {
					t.Fatalf("job %d: accepted layout does not encode: %v", i, err)
				}
				l, err := flex.ReadLayout(strings.NewReader(first.String()))
				if err != nil {
					t.Fatalf("job %d: accepted layout does not decode after encoding: %v", i, err)
				}
				if err := flex.WriteLayout(&second, l); err != nil || second.String() != first.String() {
					t.Fatalf("job %d: accepted layout does not round-trip (err %v)", i, err)
				}
			}
		}
	})
}
