package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"famedb/benchmark/flashdev"
)

// env is what must be equal for two reports to be comparable, plus what
// identifies the run.
type env struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Device     string  `json:"device_model"`
	Clients    int     `json:"clients"`
	Window     int     `json:"pipeline_window"`
	Seconds    float64 `json:"window_s"`
	Smoke      bool    `json:"smoke,omitempty"`
}

// report is the one schema every set is written in.
type report struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

func readEnv(o runOpts, smoke bool) env {
	e := env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit: "unknown", Seed: o.seed, Device: flashdev.Model,
		Clients: Clients, Window: Window, Seconds: o.seconds, Smoke: smoke,
	}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

func (r *report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// merge joins a workload's untraced and traced runs into one entry.
func merge(plain, traced *result) *result {
	m := *plain
	m.Attempted += traced.Attempted
	m.Failed += traced.Failed
	if m.FirstError == "" {
		m.FirstError = traced.FirstError
	}
	m.Layers, m.Shares, m.TracedCounts = traced.Layers, traced.Shares, traced.TracedCounts
	return &m
}
