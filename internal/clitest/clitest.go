// Package clitest runs a command's built binary against golden files:
// each case execs the binary in a fresh directory and compares its exit
// code and stdout byte for byte with testdata/<name>.golden.
package clitest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// Case is one recorded invocation.
type Case struct {
	Name string
	Args []string
	// Stdin names a testdata file fed on standard input ("" = none);
	// spec documents reach the binary this way as "-spec -".
	Stdin string
	// Then, when set, is a second invocation run in the same directory
	// after Args (a record followed by its replay); its exit code and
	// stdout are appended to the golden.
	Then []string
	// Long marks cases skipped under -short.
	Long bool
}

// Build compiles the main package in the current directory and returns
// the binary's path.
func Build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cli")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// Run executes the case and returns its golden text: "exit <code>"
// then the stdout, once per invocation.
func Run(t *testing.T, bin string, c Case) []byte {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	runs := [][]string{c.Args}
	if c.Then != nil {
		runs = append(runs, c.Then)
	}
	for _, args := range runs {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		if c.Stdin != "" {
			in, err := os.Open(filepath.Join("testdata", c.Stdin))
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			cmd.Stdin = in
		}
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		code := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%v: %v", args, err)
			}
			code = ee.ExitCode()
		}
		fmt.Fprintf(&out, "exit %d\n", code)
		out.Write(stdout.Bytes())
	}
	return out.Bytes()
}

// Goldens runs every case as a subtest against testdata/<name>.golden,
// rewriting the file instead when update is set.
func Goldens(t *testing.T, bin string, cases []Case, update bool) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if c.Long && testing.Short() {
				t.Skip("long case")
			}
			got := Run(t, bin, c)
			path := filepath.Join("testdata", c.Name+".golden")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
