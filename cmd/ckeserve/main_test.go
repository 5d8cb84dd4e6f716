package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the command itself, not the tests, when the test binary
// is re-executed with CKESERVE_MAIN set: main exits the process, so
// each case runs it in a child.
func TestMain(m *testing.M) {
	if os.Getenv("CKESERVE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ckeserve returns the command with args, run as a child process on a
// free loopback port and killed once ctx is done.
func ckeserve(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "CKESERVE_MAIN=1")
	return cmd
}

// TestRefusesBadNumericFlags: a negative -timeout, -parallel or -queue
// and a -drain-timeout that is not positive are refused before the
// service listens, with a message naming the flag — none of them is
// read as a default.
func TestRefusesBadNumericFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-timeout", "-1m"},
		{"-drain-timeout", "0"},
		{"-drain-timeout", "-5s"},
		{"-parallel", "-1"},
		{"-queue", "-3"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		msg, err := ckeserve(ctx, bad...).CombinedOutput()
		served := ctx.Err() != nil
		cancel()
		switch {
		case served:
			t.Errorf("%v: still serving after 10s, want a refusal:\n%s", bad, msg)
		case err == nil:
			t.Errorf("%v: exit 0, want a refusal:\n%s", bad, msg)
		case !strings.Contains(string(msg), bad[0]+"="):
			t.Errorf("%v: refusal does not name the flag:\n%s", bad, msg)
		case strings.Contains(string(msg), "listening on"):
			t.Errorf("%v: listened before refusing:\n%s", bad, msg)
		}
	}
}

// TestServesAndDrainsWithZeroDefaults: the zero values the refusals
// leave open (-timeout 0, -parallel 0, -queue 0) start the service, and
// SIGTERM drains it to a clean exit.
func TestServesAndDrainsWithZeroDefaults(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := ckeserve(ctx, "-timeout", "0", "-parallel", "0", "-queue", "0", "-drain-timeout", "10s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	lines := bufio.NewScanner(stderr)
	for lines.Scan() {
		log.WriteString(lines.Text() + "\n")
		if strings.Contains(lines.Text(), "listening on") {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
		log.WriteString(lines.Text() + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit: %v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Fatalf("no clean drain:\n%s", log.String())
	}
}
