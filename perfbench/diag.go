package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

// readHostCPU reads the host's cumulative CPU counters; ok is false
// where /proc/stat is unavailable.
func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var h hostCPU
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so stop at steal.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(fields[i], 10, 64)
			if err != nil {
				return hostCPU{}
			}
			h.total += v
			if i == 8 {
				h.steal = v
			}
		}
		h.ok = true
		return h
	}
	return hostCPU{}
}

// stealShare returns the share of host CPU time stolen between two
// readings, or -1 when either reading is unavailable.
func stealShare(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// diagnostics describe the host a run measured on.
type diagnostics struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	StealShare float64 `json:"stealShare"`
}

func newDiagnostics(workload string, seed int64, seconds int, trace bool) diagnostics {
	return diagnostics{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealShare: -1,
	}
}

func (d diagnostics) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s steal=%.1f%%",
		d.NumCPU, d.GOMAXPROCS, d.GoVersion, 100*d.StealShare)
}
