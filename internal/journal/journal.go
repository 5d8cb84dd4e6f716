// Package journal is the sweep journal's old surface as a view over the one
// result store (internal/resultcache): a journal file is a store's file.
package journal

import (
	"encoding/json"
	"repro/internal/resultcache"
)

// Journal is a durable result store under its journal name.
type Journal struct{ *resultcache.Store }

// Open opens the durable store at path (see resultcache.Open).
func Open(path string) (*Journal, error) {
	s, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		return nil, err
	}
	return &Journal{s}, nil
}

// Append stores v as JSON under key: one fsynced line (Store.Put).
func (j *Journal) Append(key string, v any) error {
	raw, err := json.Marshal(v)
	if err == nil {
		err = j.Put(key, raw)
	}
	return err
}

// Lookup decodes the value stored under key into v; false if absent.
func (j *Journal) Lookup(key string, v any) (bool, error) {
	if raw, ok := j.Get(key); ok {
		return true, json.Unmarshal(raw, v)
	}
	return false, nil
}

// Digest is resultcache.Digest.
var Digest = resultcache.Digest
