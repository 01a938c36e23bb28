package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as the program can: package
// initialization of main runs after every imported package's.
var processStart = time.Now()

// environment is recorded in every result file, so that two files can be
// told apart by more than their numbers.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// JournalDir is where the daemon workloads journal and JournalFS its
	// filesystem type; FsyncProbeUs is the median cost of one
	// Journal.Append (encode + write + fsync) on the checkout's disk, the
	// probe behind server.journal_append_disk_us.
	JournalDir   string  `json:"journal_dir"`
	JournalFS    string  `json:"journal_fs"`
	FsyncProbeUs float64 `json:"fsync_probe_us"`
}

func newEnvironment(root, journalDir string, seed int64, seconds int) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		Seed:       seed,
		Seconds:    seconds,
		JournalDir: journalDir,
		JournalFS:  fsType(journalDir),
	}
}

// journalRoot picks the directory the daemon workloads journal under: a
// memory-backed one (/dev/shm) when present and writable, else the
// benchmark's own out directory. Every committed evaluation is one fsync,
// and on this sandbox's shared disk that is 250 µs against 25 µs for
// everything else the daemon does per evaluation, so end-to-end numbers
// journaled to disk measure the disk; its cost is reported separately as
// server.journal_append_disk_us. This is the one place the benchmark
// writes outside its checkout; each daemon removes its directory when it
// stops, and directories a killed run left behind (they hold memory) are
// removed once they are a quarter of an hour old.
func journalRoot(outDir string) string {
	const shm = "/dev/shm"
	probe, err := os.MkdirTemp(shm, journalPrefix+"probe-")
	if err != nil {
		return outDir
	}
	os.Remove(probe)
	stale, _ := filepath.Glob(filepath.Join(shm, journalPrefix+"*"))
	for _, dir := range stale {
		if st, err := os.Stat(dir); err == nil && time.Since(st.ModTime()) > 15*time.Minute {
			os.RemoveAll(dir)
		}
	}
	return shm
}

// journalPrefix starts the name of every directory the benchmark creates
// under the journal root.
const journalPrefix = "atf-bench-"

// commitOf asks git for HEAD; a checkout that is not a repository (the
// acceptance driver's) reports "unknown".
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// cpuTime is the process's user+system CPU time so far.
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

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseFloat(fields[0], 64)
		return kb / 1024
	}
	return 0
}

// gcCPUSeconds is the CPU time the Go collector has used so far.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runtimeWindow measures allocation and collector cost between begin and
// end.
type runtimeWindow struct {
	alloc uint64
	gc    float64
	cpu   time.Duration
}

func beginRuntimeWindow() runtimeWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeWindow{alloc: ms.TotalAlloc, gc: gcCPUSeconds(), cpu: cpuTime()}
}

// end reports the window's three runtime.* metrics; it forces a
// collection first so that live_heap_mb is the heap that survives it.
func (w runtimeWindow) end(m metrics, evals uint64) {
	cpu := (cpuTime() - w.cpu).Seconds()
	gc := gcCPUSeconds() - w.gc
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - w.alloc
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if evals > 0 {
		m.set(perLayer, "runtime.alloc_bytes_per_eval", float64(alloc)/float64(evals))
	}
	if cpu > 0 {
		m.set(perLayer, "runtime.gc_cpu_share", gc/cpu)
	}
	m.set(perLayer, "runtime.live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
}
