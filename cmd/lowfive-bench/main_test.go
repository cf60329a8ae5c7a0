package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// envRunMain makes a re-exec of this test binary run main with its
// arguments instead of the test suite.
const envRunMain = "LOWFIVE_RUN_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envRunMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs lowfive-bench with args in a child process and returns its
// exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), envRunMain+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	default:
		t.Fatalf("lowfive-bench %v: %v", args, err)
		return 0, ""
	}
}

func TestTableI(t *testing.T) {
	code, out := runMain(t, "-quick", "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "Table I:") || !strings.Contains(out, "16384") {
		t.Fatalf("output lacks Table I:\n%s", out)
	}
}

// TestUsageErrorsExit2 checks that an unknown experiment or transport is a
// usage error, like an unknown flag.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-exp", "nosuch"},
		{"-quick", "-transport", "nosuch"},
	} {
		if code, out := runMain(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestFlagSet pins the command's flags: the figure, profile and sweep
// options, and nothing of the retired JSON benchmark mode, whose job is
// done by ./bench and BENCHMARK.json.
func TestFlagSet(t *testing.T) {
	code, out := runMain(t, "-h")
	if code != 0 {
		t.Fatalf("-h: exit %d, want 0:\n%s", code, out)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		// The test binary's own -test.* flags are listed too.
		if strings.HasPrefix(line, "  -") && !strings.HasPrefix(line, "  -test.") {
			got = append(got, strings.FieldsFunc(line[3:], func(r rune) bool { return r == ' ' || r == '\t' })[0])
		}
	}
	want := []string{
		"exp", "factor", "faults", "format", "http", "large-factor", "net-alpha", "net-beta",
		"profile", "quick", "scales", "seed", "stats-out", "storm", "storm-clients",
		"storm-queries", "storm-seed", "storm-zipf", "trace", "transport", "trials", "v",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags:\n got %v\nwant %v", got, want)
	}
}

// TestRetiredFlagsRefused checks that the JSON mode's flags are usage
// errors now, exiting 2 before anything runs.
func TestRetiredFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-json"},
		{"-compare", "baseline.json"},
		{"-out", "report.json"},
		{"-validate", "report.json"},
	} {
		code, out := runMain(t, append([]string{"-quick", "-exp", "table1"}, args...)...)
		if code != 2 || !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%v: exit %d, want 2 for an undefined flag:\n%s", args, code, out)
		}
	}
}
