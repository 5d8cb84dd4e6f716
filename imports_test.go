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

// TestNoUnsafeOutsideCkpt: the checkpoint codec (internal/ckpt) is the
// one package under internal/ that reads memory through unsafe; the
// engine and the service shell stay memory-safe Go.
func TestNoUnsafeOutsideCkpt(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if filepath.Dir(path) == filepath.Join("internal", "ckpt") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				t.Errorf("%s imports unsafe; only internal/ckpt may", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
