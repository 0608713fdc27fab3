package bench

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"syscall"
)

// MetricSpec is one metric BENCHMARK.json declares.
type MetricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Spec is the part of BENCHMARK.json the output self-check reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// CheckOutput verifies that metrics carries exactly the metrics spec
// declares for the mode (end_to_end, or per_layer when traced), each
// with its declared unit and a finite value, and that workload is one
// the spec names.
func CheckOutput(spec Spec, workload string, traced bool, metrics map[string]Metric) error {
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", workload)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := metrics[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			return fmt.Errorf("metric name %q does not match %s", m.Name, metricName)
		case !ok:
			return fmt.Errorf("metric %s missing from the output", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s in %s, declared %s", m.Name, got.Unit, m.Unit)
		case got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300:
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	for name := range metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// Declared splits metrics into those spec declares for the mode
// (end_to_end, or per_layer when traced) and the rest, which a run may
// measure and print without BENCHMARK.json gating them.
func Declared(spec Spec, traced bool, metrics map[string]Metric) (declared, rest map[string]Metric) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
	}
	declared, rest = map[string]Metric{}, map[string]Metric{}
	for name, m := range metrics {
		if names[name] {
			declared[name] = m
		} else {
			rest[name] = m
		}
	}
	return declared, rest
}

// Output is the result line the benchmark prints last.
type Output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// PrintOutput writes out as one JSON line.
func PrintOutput(w io.Writer, out Output) error {
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// Stamp describes the environment a run measured.
func Stamp(serverBin, dataDir string) string {
	return fmt.Sprintf("stamp nproc=%d gomaxprocs=%d go=%s server=%s data_fs=%s flush=fsync-per-journal-record",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildID(serverBin), fsType(dataDir))
}

// buildID names the server build: its VCS revision when the build
// recorded one, else a hash of the binary (a checkout without git
// history records none).
func buildID(bin string) string {
	if bi, err := buildinfo.ReadFile(bin); err == nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	data, err := os.ReadFile(bin)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:6])
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("magic-%#x", uint32(st.Type))
}
