package flex

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/fleet"
	"github.com/flex-eda/flex/internal/model"
)

// TestWireNegativeFieldsRejected: a fleet job with a negative deadlineMs
// or a negative thread count is an invalid job, as flexserve's request
// parser has it, both through parse and through the worker handler, which
// answers 400 "invalid" so the coordinator does not retry it elsewhere.
func TestWireNegativeFieldsRejected(t *testing.T) {
	svc := NewService(WithWorkers(1))
	defer svc.Close()
	srv := httptest.NewServer(NewFleetWorker(svc).Handler())
	defer srv.Close()
	x := &serviceExecutor{svc: svc}
	for _, c := range []struct {
		name string
		job  fleet.Job
	}{
		{"negative deadline", fleet.Job{Engine: "mgl", Design: "fft_a_md2", Scale: 0.01, DeadlineMs: -1}},
		{"negative threads", fleet.Job{Engine: "mgl-mt", Design: "fft_a_md2", Scale: 0.01, Threads: -1}},
	} {
		if _, err := x.parse(c.job); !errors.Is(err, fleet.ErrInvalidJob) {
			t.Fatalf("%s: parse err %v, want fleet.ErrInvalidJob", c.name, err)
		}
		body, err := json.Marshal(c.job)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/w/v1/job", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct{ Code string }
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || reply.Code != "invalid" {
			t.Fatalf("%s: worker answered %d %q (decode err %v), want 400 \"invalid\"", c.name, resp.StatusCode, reply.Code, err)
		}
	}
}

// FuzzWireJob decodes the fuzz bytes into a fleet.Job as the worker's job
// handler does, unknown fields rejected, and runs the executor's parse. It
// requires no panic, every rejection to be fleet.ErrInvalidJob, and every
// accepted job to have exactly one source, a thread count of at least 0,
// no deadline for a deadlineMs of 0 and a future one otherwise, and a
// layout that round-trips through the codec.
func FuzzWireJob(f *testing.F) {
	x := &serviceExecutor{}
	f.Fuzz(func(t *testing.T, body []byte) {
		var j fleet.Job
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&j) != nil {
			return
		}
		before := time.Now()
		job, err := x.parse(j)
		if err != nil {
			if !errors.Is(err, fleet.ErrInvalidJob) {
				t.Fatalf("parse rejected %s with %v, not fleet.ErrInvalidJob", body, err)
			}
			return
		}
		if (job.Layout != nil) == (job.Design != "") {
			t.Fatalf("accepted %s with layout %t and design %q", body, job.Layout != nil, job.Design)
		}
		if job.Options.Threads < 0 {
			t.Fatalf("accepted %s with %d threads", body, job.Options.Threads)
		}
		if (j.DeadlineMs == 0) != job.Deadline.IsZero() || !job.Deadline.IsZero() && !job.Deadline.After(before) {
			t.Fatalf("accepted %s with deadline %v at %v", body, job.Deadline, before)
		}
		if job.Layout == nil {
			return
		}
		var first, second strings.Builder
		if err := model.Encode(&first, job.Layout); err != nil {
			t.Fatal(err)
		}
		l, err := model.Decode(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("an accepted layout does not decode again: %v", err)
		}
		if err := model.Encode(&second, l); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatal("an accepted layout does not round-trip")
		}
	})
}
