package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// CheckIdentity renders a check's per-problem identity (Kind/Loc/Desc) —
// the join key for matching results back to the checks that produced them
// when re-indexing a result cache, as internal/delta does after every run.
func CheckIdentity(kind CheckKind, loc Location, desc string) string {
	return fmt.Sprintf("%d/%s/%s", kind, loc, desc)
}

// checkKey hashes the semantic inputs of a check into a cache key: the
// first 128 bits of a SHA-256 over the NUL-separated parts, hex-encoded.
// Keys gate result sharing across jobs and persistent stores, so a
// collision would silently return one check's verdict for another; a
// 64-bit hash (the previous FNV-1a scheme) leaves that to birthday luck,
// while 128 bits of SHA-256 make it cryptographically negligible.
func checkKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// PartitionChecks splits checks into those whose location satisfies dirty
// and the rest — the hook internal/delta uses to map a network diff onto
// the subset of local checks that must re-run. It preserves order within
// each partition.
func PartitionChecks(checks []Check, dirty func(Location) bool) (hit, miss []Check) {
	for _, c := range checks {
		if dirty(c.Loc) {
			hit = append(hit, c)
		} else {
			miss = append(miss, c)
		}
	}
	return hit, miss
}
