//go:build !simcheck

package mac

// gateCheck is false in normal builds; the brute-force checks compile
// away entirely. Build with -tags simcheck to enable them.
const gateCheck = false
