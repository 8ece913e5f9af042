package main

// Command-line contract tests through the real binary: what `janus`
// refuses (exit 2 and a usage line, not a silent default), and what a
// hostile schedule file may do to `janus run`.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"janus/internal/rules"
)

// janusBin is the real binary, compiled once per test binary run.
var janusBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "janus-test")
	if err != nil {
		panic(err)
	}
	janusBin = filepath.Join(dir, "janus")
	out, err := exec.Command("go", "build", "-o", janusBin, ".").CombinedOutput()
	if err != nil {
		panic("building janus: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runJanus runs the binary and returns stdout, stderr and the exit code.
func runJanus(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(janusBin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestRejectsUnknownOptAndInput: an unknown -opt or -input is a usage
// error naming the value, never a silent O3 / ref run.
func TestRejectsUnknownOptAndInput(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binary; skipped in -short")
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stderr (code 2) or stdout (code 0)
	}{
		{"unknown opt", []string{"schedule", "-bench", "470.lbm", "-input", "train", "-opt", "O1"}, 2, `unknown -opt "O1"`},
		{"opt is case sensitive", []string{"run", "-bench", "470.lbm", "-input", "train", "-opt", "o3"}, 2, `unknown -opt "o3"`},
		{"unknown input", []string{"run", "-bench", "470.lbm", "-input", "test"}, 2, `unknown -input "test"`},
		{"empty input", []string{"analyze", "-bench", "470.lbm", "-input", ""}, 2, `unknown -input ""`},
		{"fuzz is an unknown subcommand", []string{"fuzz", "-campaign", "corpus"}, 2, "usage: janus <"},
		{"known values still run", []string{"run", "-bench", "470.lbm", "-input", "train", "-opt", "O3avx", "-threads", "2"}, 0, "verification       OK"},
		{"defaults still run", []string{"schedule", "-bench", "470.lbm", "-input", "train"}, 0, "# "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runJanus(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			got := stdout
			if tc.code != 0 {
				got = stderr
				if !strings.Contains(stderr, "usage: janus") {
					t.Errorf("stderr lacks a usage line:\n%s", stderr)
				}
				if stdout != "" {
					t.Errorf("a rejected command line printed to stdout:\n%s", stdout)
				}
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, got)
			}
		})
	}
}

// TestRunScheduleSurvivesHostileLoopIDs: a loop ID in a schedule file
// is outside input. Consistent rules under any ID run verified; a
// LOOP_INIT whose loop has no exit target left exits 1 with the typed
// error on one line, never a stack trace.
func TestRunScheduleSurvivesHostileLoopIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binary; skipped in -short")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "lbm.jrs")
	bench := []string{"-bench", "470.lbm", "-input", "train"}
	if _, stderr, code := runJanus(t, append([]string{"schedule", "-o", file}, bench...)...); code != 0 {
		t.Fatalf("janus schedule: exit %d:\n%s", code, stderr)
	}
	img, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := rules.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	victim := sched.Rules[0].LoopID
	for _, tc := range []struct {
		name string
		id   int32
		only rules.ID // 0: renumber every rule of the victim loop
		code int
		want string
	}{
		{"negative", -7, 0, 0, "verification       OK"},
		{"huge", 1 << 30, 0, 0, "verification       OK"},
		{"finish rules only", 1 << 30, rules.LOOP_FINISH, 1, "has no exit targets: inconsistent rewrite schedule"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hostile := &rules.Schedule{ExeName: sched.ExeName, ExeSize: sched.ExeSize}
			for _, r := range sched.Rules {
				if r.LoopID == victim && (tc.only == 0 || r.ID == tc.only) {
					r.LoopID = tc.id
				}
				hostile.Append(r)
			}
			img, err := hostile.Save()
			if err != nil {
				t.Fatal(err)
			}
			f := filepath.Join(dir, tc.name+".jrs")
			if err := os.WriteFile(f, img, 0o644); err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := runJanus(t, append([]string{"run", "-schedule", f, "-threads", "4"}, bench...)...)
			if code != tc.code || strings.Contains(stderr, "goroutine ") || strings.Count(stderr, "\n") > 1 {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if got := stdout + stderr; !strings.Contains(got, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, got)
			}
		})
	}
}
