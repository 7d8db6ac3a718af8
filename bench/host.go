package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and build a results file was taken on.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close() // read-only
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if c := headCommit(".git"); c != "" {
		fp.Commit = c
	}
	return fp
}

// headCommit resolves HEAD by reading the git directory's own files, so
// the benchmark starts no process and looks at nothing above its working
// directory. A checkout that is not a git repository yields "".
func headCommit(gitDir string) string {
	head, err := os.ReadFile(gitDir + "/HEAD")
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return short(ref)
	}
	if b, err := os.ReadFile(gitDir + "/" + ref); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	packed, err := os.ReadFile(gitDir + "/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return short(hash)
		}
	}
	return ""
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStat is the aggregate "cpu" line of /proc/stat in clock ticks.
type procStat struct{ steal, total uint64 }

func readProcStat() procStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return procStat{}
	}
	var ps procStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user, so the first eight columns are the total.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		ps.total += v
		if i == 7 {
			ps.steal = v
		}
	}
	return ps
}

// stealShare is the share of all CPU time between two readings that the
// hypervisor gave to someone else: the visible part of host noise.
func stealShare(a, b procStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
