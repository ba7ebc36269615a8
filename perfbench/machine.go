package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// machine is the fingerprint recorded with every result set, so a
// number is never read apart from the hardware and toolchain it came
// from.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func fingerprint() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				m.GOAMD64 = s.Value
			}
		}
	}
	if m.GOAMD64 == "" && runtime.GOARCH == "amd64" {
		m.GOAMD64 = "v1" // the toolchain default when unset
	}
	return m
}

func (m machine) String() string {
	b, _ := json.Marshal(m) // a struct of strings and ints always encodes
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssPeriod is the memory sampling period of the timed loop. The
// reported peak is the 90th percentile of the samples: a process's
// single highest reading depends on when its Go collector happens to
// run, and moves by more than the benchmark's bound between runs.
const rssPeriod = 50 * time.Millisecond

// procRSS reads another live process's resident set size (VmRSS) in
// bytes.
func procRSS(pid int) (uint64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseStatusKB(f, "VmRSS")
}

// parseStatusKB extracts one "<key>: <n> kB" line of a /proc/<pid>/status
// file, in bytes.
func parseStatusKB(r io.Reader, key string) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed %s line %q", key, sc.Text())
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s line %q: %w", key, sc.Text(), err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("no %s line", key)
}

// rssSampler records the summed resident memory of a set of processes
// every period until finished.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // bytes; owned by the sampling goroutine until done
	err        error
}

func sampleRSS(pids []int, period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			var total uint64
			for _, pid := range pids {
				b, err := procRSS(pid)
				if err != nil {
					s.err = err
					return
				}
				total += b
			}
			s.samples = append(s.samples, float64(total))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampling, waits for it, and returns the samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}
