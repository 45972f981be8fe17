package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is the process-wide reading taken at both edges of a
// measured window; the metrics are differences of two samples, so the
// work of set-up never leaks into a per-op figure.
type procSample struct {
	at      time.Time
	cpu     time.Duration // getrusage user+sys
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
	rssMB   float64 // resident set right now; 0 if /proc is unreadable
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
		rssMB:   procStatusMB("VmRSS:"),
	}
}

// procStatusMB reads one kB-valued field of /proc/self/status (VmRSS:,
// VmHWM:) in MB; 0 when it cannot be read.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// envInfo is recorded in every result file: a number without the box
// it was measured on cannot be compared with anything.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	FSType     string `json:"fs_type"`
	OutDir     string `json:"out_dir"`
}

func readEnv(outDir string) envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		FSType:     fsType(outDir),
		OutDir:     outDir,
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (the acceptance driver runs the benchmark from a plain
// directory).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir: fsync cost, and with it
// every durable workload, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
