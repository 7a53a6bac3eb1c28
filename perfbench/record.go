package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
)

// record is the run configuration stored next to the results, so a
// figure can be traced to the host, build and layout it came from.
type record struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	Trace         bool             `json:"trace"`
	Nproc         int              `json:"nproc"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	GoVersion     string           `json:"go_version"`
	Commit        string           `json:"commit"`
	Started       string           `json:"started"`
	Inflight      int              `json:"inflight_per_caller"`
	OpDeadline    string           `json:"op_deadline"`
	Warmup        string           `json:"warmup"`
	Lanes         int              `json:"lanes"`
	OutFS         string           `json:"out_fs"`
	Builds        []map[string]any `json:"builds"`
	Setups        []float64        `json:"setups_s"`
	Window        float64          `json:"window_s"`
	HostStealFrac float64          `json:"host_steal_frac"`
	Samples       map[string]int   `json:"samples"`
	TracedTPS     float64          `json:"traced_tps,omitempty"`
	UntracedTPS   float64          `json:"untraced_tps,omitempty"`
}

func newRecord(w workload, o options) *record {
	return &record{
		Workload:   w.name,
		Seed:       o.seed,
		Trace:      o.trace,
		Nproc:      nproc(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     o.commit,
		Started:    time.Now().UTC().Format(time.RFC3339),
		Inflight:   w.inflight,
		OpDeadline: opDeadline.String(),
		Warmup:     warmup.String(),
		Lanes:      cluster.DefaultLanes(),
		OutFS:      fsType(o.out),
	}
}

// write stores the record as JSON and echoes it on standard output
// ahead of the result line.
func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("run record: %s\n", line)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
