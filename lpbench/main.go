// Command lpbench is lpbuf's end-to-end benchmark. It drives the
// public entry points users wait on — cold `lpbuf -all`, a cold
// Figure 7 sweep, and an in-process lpbufd serving a mixed job stream
// over loopback HTTP — and, in a separate traced run, splits each
// workload's time into the modules it passes through by timing calls
// into their public functions. See README.md for the workloads, the
// metrics and how to read them.
//
//	lpbench --workload all-cold --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A human-readable report goes to standard error. Any failed output
// check makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers bounds the parallelism of every workload: experiment
// runner pools, lpbufd client connections and the traced replica.
const workers = 2

// setupReps is how many times each run sets its workload up;
// setup_s reports the median.
const setupReps = 3

// workload is one benchmark workload. setup builds fresh state (it is
// called setupReps times, and the last state is measured); measure is
// the untraced run reporting end-to-end metrics, trace the traced run
// reporting per-layer metrics.
type workload interface {
	setup(seed int64) error
	measure(d time.Duration) *report
	trace(d time.Duration) *report
	close()
}

var workloads = map[string]func() workload{
	"all-cold":    func() workload { return newCold(allCold) },
	"fig7-cold":   func() workload { return newCold(fig7Cold) },
	"service-mix": func() workload { return &serviceMix{} },
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of a workload produced.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	notes             []string // extra lines for the human-readable report
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// fail records a failed operation (an output check that did not hold,
// or a request that errored or was rejected).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: all-cold, fig7-cold or service-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "lpbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	w := mk()
	defer w.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "lpbench: %s setup: %v\n", *name, err)
			w.close()
			os.Exit(1)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(*seconds) * time.Second
	var r *report
	if *trace == 1 {
		r = w.trace(d)
	} else {
		r = w.measure(d)
		r.set("setup_s", "s", quantile(setups, 0.5))
		r.set("ok_ratio", "ratio", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)))
	}

	fmt.Fprintf(os.Stderr, "lpbench %s seed=%d seconds=%d trace=%d: attempted %d, failed %d, setups %s\n",
		*name, *seed, *seconds, *trace, r.attempted, r.failed, fmtList(setups, "%.3fs"))
	var keys []string
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", e)
	}
	correct := r.failed == 0 && r.attempted > 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !correct {
		w.close()
		os.Exit(1)
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapPeak samples live heap object bytes until stopped and reports
// the largest sample.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mb stops the sampler and returns the peak in MiB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// parallel runs fn(i) for i in [0, n) on at most workers goroutines
// and returns once every call has finished.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// gc settles the heap between timed sections so one pass's garbage is
// not collected on the next pass's clock.
func gc() { runtime.GC() }
