package gcke

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnsafeOutsideCkpt: the checkpoint codec's access helper
// (internal/ckpt/codec.go), which lifts reflect's read-only flag off
// unexported fields, is the one place outside tests that imports unsafe;
// the engine, the service shell, the commands and the benchmark stay
// memory-safe Go.
func TestNoUnsafeOutsideCkpt(t *testing.T) {
	allowed := filepath.Join("internal", "ckpt", "codec.go")
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		// Skip what the go tool's ./... skips: build scratch such as
		// .bench_build may hold other revisions' sources.
		if err == nil && d.IsDir() && path != "." &&
			(strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == allowed {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				t.Errorf("%s imports unsafe; only %s may", path, allowed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
