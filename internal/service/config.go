package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// maxQueueDepth caps the admission queue. The internal job channel is
// sized to it once at startup, so hot reloads can lower or raise the
// effective depth without reallocating the channel.
const maxQueueDepth = 4096

// Config is lpbufd's configuration, loadable from a JSON file and
// hot-reloadable on SIGHUP. Admission fields (QueueDepth, MaxPerClient,
// Workers, Verify) apply to reloads immediately; Listen, StoreDir and
// MaxJobs are bound at startup and a reload that changes them reports
// which changes were ignored.
type Config struct {
	// Listen is the HTTP listen address.
	Listen string `json:"listen"`
	// StoreDir roots the content-addressed artifact store.
	StoreDir string `json:"store_dir"`
	// MaxJobs bounds concurrently executing jobs (worker goroutines).
	MaxJobs int `json:"max_jobs"`
	// Workers bounds each job's runner pool (compiles/simulations in
	// flight within one job). 0 means the size of the process-wide
	// compute pool, GOMAXPROCS at startup, which bounds all jobs'
	// compiles and simulations together.
	Workers int `json:"workers"`
	// QueueDepth bounds queued-but-unstarted jobs; past it submissions
	// get 429 + Retry-After.
	QueueDepth int `json:"queue_depth"`
	// MaxPerClient bounds one client's active (queued or running) jobs.
	MaxPerClient int `json:"max_per_client"`
	// Verify forces internal/verify phase checkpoints on every job.
	Verify bool `json:"verify"`
}

// DefaultConfig is the baseline every load starts from.
func DefaultConfig() Config {
	return Config{
		Listen:       "127.0.0.1:7788",
		StoreDir:     "lpbufd-store",
		MaxJobs:      2,
		Workers:      0,
		QueueDepth:   64,
		MaxPerClient: 16,
	}
}

// LoadConfig reads a JSON config file over the defaults. Unknown fields
// are rejected — a typoed knob should fail loudly, not silently keep
// its default.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("config %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("config %s: %w", path, err)
	}
	return cfg, nil
}

// Validate checks field ranges.
func (c Config) Validate() error {
	if c.Listen == "" {
		return fmt.Errorf("listen must be set")
	}
	if c.StoreDir == "" {
		return fmt.Errorf("store_dir must be set")
	}
	if c.MaxJobs < 1 {
		return fmt.Errorf("max_jobs %d, want >= 1", c.MaxJobs)
	}
	if c.Workers < 0 {
		return fmt.Errorf("workers %d, want >= 0", c.Workers)
	}
	if c.QueueDepth < 1 || c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("queue_depth %d, want 1..%d", c.QueueDepth, maxQueueDepth)
	}
	if c.MaxPerClient < 1 {
		return fmt.Errorf("max_per_client %d, want >= 1", c.MaxPerClient)
	}
	return nil
}
