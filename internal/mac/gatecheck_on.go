//go:build simcheck

package mac

// gateCheck makes the medium re-evaluate, by brute force, every channel
// probe the audibility gate skipped, and panic when one would have
// crossed its threshold (see gatecheck.go). Build with -tags simcheck
// (scripts/ci.sh does) to turn a silent index under-mark into a loud
// failure.
const gateCheck = true
