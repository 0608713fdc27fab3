package bench

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (dphist (srv) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 250 75 0 0 20 0 9 0 100 1 2 3\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 325 * clockTick; got != want {
		t.Fatalf("cpu %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("short stat line accepted")
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\tdphist-server\nVmPeak:\t  900 kB\nVmHWM:\t   16384 kB\nVmRSS:\t 12000 kB\n"
	got, err := parseStatusHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 16384<<10 {
		t.Fatalf("hwm %d, want %d", got, 16384<<10)
	}
	if _, err := parseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	before, err := ProcCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	after, err := ProcCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 50*time.Millisecond {
		t.Fatalf("burned 100ms of CPU, /proc says %v (loop ran %d times)", after-before, x)
	}
	hwm, err := ProcPeakRSS(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if hwm < 1<<20 {
		t.Fatalf("peak RSS %d bytes", hwm)
	}
}
