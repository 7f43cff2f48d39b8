// Package service is the resident experiment service behind cmd/lpbufd:
// an HTTP job API (submit, status, SSE progress, artifact fetch) in
// front of the internal/runner execution subsystem, a content-addressed
// artifact store keyed on (job spec, machine description) hashes, and
// queue/rate admission control. One process serves many clients: jobs
// are deduplicated three ways (byte-identical artifacts from the store,
// identical in-flight jobs through a singleflight group, and shared
// compiles/simulations through one process-wide experiments.Cache), so
// a thousand-job sweep costs little more than its distinct work.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"lpbuf/internal/experiments"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs/pmu"
)

// Schema strings of the job API. JobSchema versions the request codec
// (JobSpec), StatusSchema the response codec (JobStatus); cmd/obscheck
// validates both directions.
const (
	JobSchema    = "lpbuf.job/v1"
	StatusSchema = "lpbuf.jobstatus/v1"
)

// keyVersion salts the content-address hash. Bump it whenever the
// artifact a spec produces can change for reasons the spec and machine
// fingerprint do not capture (compiler pipeline changes, artifact
// encoding changes), so stale store objects are never served.
const keyVersion = "lpbufd-key/2"

// canonicalFigures is the canonical figure order of a normalized spec.
// "encoding" and "headline" are figure-shaped for the codec even though
// the CLI spells them as standalone flags (one of the round-trip
// asymmetries between cmd/lpbuf flags and the job codec).
var canonicalFigures = []string{"3", "5", "7", "8a", "8b", "encoding", "headline", "shootout"}

// defaultFig5Sizes mirrors cmd/lpbuf's Figure 5 sweep.
var defaultFig5Sizes = []int{16, 32, 64}

// JobSpec is the lpbuf.job/v1 request: which figures to regenerate and
// under what sweeps. It deliberately mirrors cmd/lpbuf's flags — the
// CLI's -submit mode and the service share this one codec — and it
// normalizes to a canonical form (sorted deduplicated figures, explicit
// sweep sizes, "all" expanded) so equal work always hashes to the same
// content-address key regardless of how the caller spelled it.
type JobSpec struct {
	Schema string `json:"schema"`
	// Figures lists experiments to run: "3", "5", "7", "8a", "8b",
	// "encoding", "headline", or "all".
	Figures []string `json:"figures"`
	// Fig7Sizes overrides the Figure 7 buffer sweep (operations).
	// Empty means the paper's sweep. Ignored unless "7" is requested.
	Fig7Sizes []int `json:"fig7_sizes,omitempty"`
	// Fig5Sizes overrides the Figure 5 buffer sizes. Empty means the
	// paper's 16/32/64. Ignored unless "5" is requested.
	Fig5Sizes []int `json:"fig5_sizes,omitempty"`
	// Verify enables internal/verify phase checkpoints on every compile
	// the job performs.
	Verify bool `json:"verify,omitempty"`
	// Client identifies the submitter for per-client admission caps.
	// Empty falls back to the connection's remote host. Excluded from
	// the content-address key: who asks does not change the answer.
	Client string `json:"client,omitempty"`
}

// SpecForFigures builds a normalized JobSpec from cmd/lpbuf-style
// figure selections.
func SpecForFigures(figures []string, verify bool) (JobSpec, error) {
	return JobSpec{Schema: JobSchema, Figures: figures, Verify: verify}.Normalized()
}

// Normalized validates the spec and returns its canonical form:
// schema pinned, figures lower-cased, deduplicated, "all" expanded and
// sorted into canonical order; sweep sizes defaulted, deduplicated,
// sorted ascending; sweeps for unrequested figures dropped. Two specs
// describing the same work normalize identically.
func (s JobSpec) Normalized() (JobSpec, error) {
	if s.Schema != "" && s.Schema != JobSchema {
		return JobSpec{}, fmt.Errorf("schema %q, want %q", s.Schema, JobSchema)
	}
	want := map[string]bool{}
	for _, f := range s.Figures {
		f = strings.ToLower(strings.TrimSpace(f))
		if f == "all" {
			for _, k := range canonicalFigures {
				want[k] = true
			}
			continue
		}
		known := false
		for _, k := range canonicalFigures {
			if f == k {
				known = true
				break
			}
		}
		if !known {
			return JobSpec{}, fmt.Errorf("unknown figure %q (known: %s, all)",
				f, strings.Join(canonicalFigures, ", "))
		}
		want[f] = true
	}
	if len(want) == 0 {
		return JobSpec{}, fmt.Errorf("no figures requested")
	}
	out := JobSpec{Schema: JobSchema, Verify: s.Verify, Client: s.Client}
	for _, k := range canonicalFigures {
		if want[k] {
			out.Figures = append(out.Figures, k)
		}
	}
	var err error
	if want["7"] {
		if out.Fig7Sizes, err = normalizeSizes(s.Fig7Sizes, experiments.BufferSizes); err != nil {
			return JobSpec{}, fmt.Errorf("fig7_sizes: %w", err)
		}
	}
	if want["5"] {
		if out.Fig5Sizes, err = normalizeSizes(s.Fig5Sizes, defaultFig5Sizes); err != nil {
			return JobSpec{}, fmt.Errorf("fig5_sizes: %w", err)
		}
	}
	return out, nil
}

// normalizeSizes defaults, deduplicates and sorts a buffer-size sweep.
func normalizeSizes(sizes, def []int) ([]int, error) {
	if len(sizes) == 0 {
		sizes = def
	}
	seen := map[int]bool{}
	var out []int
	for _, sz := range sizes {
		if sz <= 0 {
			return nil, fmt.Errorf("buffer size %d must be positive", sz)
		}
		if seen[sz] {
			continue
		}
		seen[sz] = true
		out = append(out, sz)
	}
	sort.Ints(out)
	return out, nil
}

// MachineFingerprint hashes the modeled machine description. Jobs are
// keyed on it so a future file-loadable machine description (see
// ROADMAP) invalidates the store instead of serving another target's
// artifacts.
func MachineFingerprint() string {
	desc, err := json.Marshal(machine.Default())
	if err != nil {
		// The description is a plain struct; Marshal cannot fail, but a
		// panic here beats silently merging all machines into one key.
		panic(fmt.Sprintf("service: machine description not hashable: %v", err))
	}
	sum := sha256.Sum256(desc)
	return hex.EncodeToString(sum[:])
}

// Key content-addresses the spec: a SHA-256 over the canonical spec
// (minus Client), the machine fingerprint, the artifact schema version
// and the key-format version. Equal keys mean byte-identical artifacts;
// the store serves them without recompute.
func (s JobSpec) Key() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	n.Client = ""
	payload, err := json.Marshal(struct {
		Spec     JobSpec `json:"spec"`
		Machine  string  `json:"machine"`
		Artifact string  `json:"artifact_schema"`
		Version  string  `json:"key_version"`
	}{n, MachineFingerprint(), experiments.ArtifactSchema, keyVersion})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// State is a job's lifecycle phase.
type State string

// The job states. Queued jobs wait for a worker slot; a drain cancels
// them. Running jobs always finish in done, failed or canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// valid reports whether s is one of the defined states.
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// JobStatus is the lpbuf.jobstatus/v1 response: one job's identity,
// lifecycle and outcome. Timestamps are RFC 3339 with nanoseconds.
type JobStatus struct {
	Schema string  `json:"schema"`
	ID     string  `json:"id"`
	State  State   `json:"state"`
	Key    string  `json:"key"`
	Spec   JobSpec `json:"spec"`
	// CacheHit marks an artifact served from the content-addressed
	// store without recompute.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Shared marks a job that piggybacked on an identical in-flight
	// job's execution (singleflight dedupe).
	Shared     bool   `json:"shared,omitempty"`
	Error      string `json:"error,omitempty"`
	QueuedAt   string `json:"queued_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
	// ArtifactURL is the relative fetch path once State is done.
	ArtifactURL string `json:"artifact_url,omitempty"`
	// TraceID is the trace context the job runs under — client-propagated
	// via the X-Lpbuf-Trace header or generated at admission. The job's
	// span tree carries it as the root span's trace_id attribute.
	TraceID string `json:"trace_id,omitempty"`
	// TraceURL is the relative path of the job's Perfetto span tree.
	TraceURL string `json:"trace_url,omitempty"`
	// SimProfileURL is the relative path of the job's sampled guest-PMU
	// profile (lpbuf.simprofile/v1), present only when this job's own
	// build executed simulations (store hits and dedup followers did not).
	SimProfileURL string `json:"simprofile_url,omitempty"`
	// Sampling is the PMU sampling configuration the profile was taken
	// under, recorded so profile consumers know the period and seed.
	Sampling *pmu.Config `json:"sampling,omitempty"`
	// Resources is the job's resource accounting, filled at the terminal
	// state.
	Resources *JobResources `json:"resources,omitempty"`
}

// JobResources is one job's resource accounting. CPU time and
// allocations are process-wide deltas sampled around the job's
// execution window — exact (allocations to within a span) when the job
// ran alone, an upper bound when other jobs overlapped it — and are
// omitted when zero, as for jobs canceled before they started.
type JobResources struct {
	// WallMS is time from start of execution to the terminal state.
	WallMS float64 `json:"wall_ms"`
	// QueueMS is time spent waiting for a worker slot.
	QueueMS float64 `json:"queue_ms,omitempty"`
	// CPUMS is process CPU time (user+system) consumed across the
	// execution window.
	CPUMS float64 `json:"cpu_ms,omitempty"`
	// AllocBytes is heap allocated across the execution window, read
	// from runtime/metrics without stopping the world. It is counted a
	// span at a time, so it is exact to within a span per P.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Provenance records how the artifact was produced: "computed",
	// "store-hit" or "inflight-dedup" (same vocabulary as the
	// X-Lpbuf-Cache response header).
	Provenance string `json:"provenance,omitempty"`
}

// Validate checks a decoded JobStatus (obscheck's response-direction
// gate).
func (st JobStatus) Validate() error {
	if st.Schema != StatusSchema {
		return fmt.Errorf("schema %q, want %q", st.Schema, StatusSchema)
	}
	if st.ID == "" {
		return fmt.Errorf("missing job id")
	}
	if !st.State.valid() {
		return fmt.Errorf("unknown state %q", st.State)
	}
	if len(st.Key) != sha256.Size*2 {
		return fmt.Errorf("key %q is not a sha256 hex digest", st.Key)
	}
	if _, err := hex.DecodeString(st.Key); err != nil {
		return fmt.Errorf("key %q is not hex: %v", st.Key, err)
	}
	if _, err := st.Spec.Normalized(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if st.State == StateDone && st.ArtifactURL == "" {
		return fmt.Errorf("done without artifact_url")
	}
	if st.State == StateFailed && st.Error == "" {
		return fmt.Errorf("failed without error")
	}
	if st.Sampling != nil && st.Sampling.Period < 0 {
		return fmt.Errorf("negative sampling period %d", st.Sampling.Period)
	}
	if r := st.Resources; r != nil {
		if r.WallMS < 0 || r.QueueMS < 0 || r.CPUMS < 0 || r.AllocBytes < 0 {
			return fmt.Errorf("negative resource accounting: %+v", *r)
		}
		switch r.Provenance {
		case "", "computed", "store-hit", "inflight-dedup":
		default:
			return fmt.Errorf("unknown provenance %q", r.Provenance)
		}
	}
	return nil
}
