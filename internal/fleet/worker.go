package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/flex-eda/flex/internal/obs"
	"github.com/flex-eda/flex/internal/sched"
)

// maxJobBytes bounds a job body: fleet traffic is coordinator-originated,
// but a band of a paper-scale design serialized as flexpl can reach tens
// of megabytes, so the cap is generous rather than tight.
const maxJobBytes = 256 << 20

// Worker serves the fleet job protocol for one node: it owns the
// draining flag and translates between HTTP and an Executor.
type Worker struct {
	exec     Executor
	log      *slog.Logger
	draining atomic.Bool
}

// NewWorker wraps exec in the wire protocol. log receives the worker's
// request logging (trace arrivals at debug, drain transitions at warn);
// nil means slog.Default.
func NewWorker(exec Executor, log *slog.Logger) *Worker {
	if log == nil {
		log = slog.Default()
	}
	return &Worker{exec: exec, log: log}
}

// Drain flips the worker into draining: /w/v1/health and /w/v1/job both
// answer 503 from now on, so coordinators stop routing here and retry
// in-flight rejections elsewhere. Jobs already executing are unaffected —
// the caller decides how long to let them finish.
func (w *Worker) Drain() {
	if !w.draining.Swap(true) {
		w.log.Warn("worker draining: rejecting new jobs with 503")
	}
}

// Handler returns the worker's HTTP surface: POST /w/v1/job and
// GET /w/v1/health. Mount it on the serving mux (flexserve -mode worker
// mounts it next to the normal API).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /w/v1/job", w.handleJob)
	mux.HandleFunc("GET /w/v1/health", w.handleHealth)
	return mux
}

func (w *Worker) handleHealth(rw http.ResponseWriter, req *http.Request) {
	load := w.exec.Load()
	build := obs.Build()
	h := Health{
		Status:          "ok",
		QueuedJobs:      load.QueuedJobs,
		Workers:         load.Workers,
		DeviceWaitMs:    float64(load.DeviceWait) / float64(time.Millisecond),
		DeviceHoldMs:    float64(load.DeviceHold) / float64(time.Millisecond),
		DeviceAcquires:  load.DeviceAcquires,
		DeviceReconfigs: load.DeviceReconfigs,
		Version:         build.Version,
		Revision:        build.Revision,
	}
	status := http.StatusOK
	if w.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(h) //nolint:errcheck // best-effort: client gone
}

func (w *Worker) handleJob(rw http.ResponseWriter, req *http.Request) {
	if w.draining.Load() {
		writeError(rw, http.StatusServiceUnavailable, codeDraining, "worker draining")
		return
	}
	var job Job
	dec := json.NewDecoder(http.MaxBytesReader(rw, req.Body, maxJobBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		writeError(rw, http.StatusBadRequest, codeInvalid, "decode job: "+err.Error())
		return
	}

	ctx := req.Context()
	if job.DeadlineMs > 0 {
		// Re-anchor the relative wire deadline on this host's clock.
		var cancel context.CancelFunc
		//flexvet:walltime anchoring the coordinator's relative deadline locally
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Duration(job.DeadlineMs)*time.Millisecond))
		defer cancel()
	}

	// A propagated trace: open a linked recorder under the coordinator's
	// ID so this job's worker-side spans ship back inside the result.
	// The arrival log line is the wire half of trace continuity — the
	// same ID appears in the coordinator's result rows.
	var rec *obs.Recorder
	if id := req.Header.Get(TraceHeader); id != "" {
		rec = obs.NewLinkedRecorder(id)
		ctx = obs.WithRecorder(ctx, rec)
		w.log.Debug("fleet job received", "trace", id, "key", job.Key,
			"engine", job.Engine, "client", job.Client)
	}

	res, err := w.exec.Execute(ctx, job)
	if err != nil {
		status, code := classifyExecErr(ctx, err)
		writeError(rw, status, code, err.Error())
		return
	}
	if rec != nil {
		res.Spans = rec.Spans()
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(res) //nolint:errcheck // best-effort: client gone
}

// classifyExecErr maps an Executor failure to its wire status and code.
// Deadline classification accepts both the scheduler's sentinel and a
// context deadline the handler itself set — either way, the coordinator
// must see a typed deadline, not a generic 500.
func classifyExecErr(ctx context.Context, err error) (int, string) {
	switch {
	case errors.Is(err, sched.ErrDeadlineExceeded),
		errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil:
		return http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, ErrInvalidJob):
		return http.StatusBadRequest, codeInvalid
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, codeOverloaded
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, codeDraining
	default:
		return http.StatusInternalServerError, codeFailed
	}
}

func writeError(rw http.ResponseWriter, status int, code, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(errorBody{Error: msg, Code: code}) //nolint:errcheck // best-effort: client gone
}
