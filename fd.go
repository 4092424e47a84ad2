package ucq

import "repro/internal/fd"

// FD is a functional dependency R: From → To over 0-based positions of
// relation R (Remark 2 of the paper; Carmeli & Kröll ICDT'18).
type FD = fd.FD

// FDSet is a collection of functional dependencies.
type FDSet = fd.Set

// NewFDSet builds an FD set, validating positions.
func NewFDSet(fds ...FD) (*FDSet, error) { return fd.NewSet(fds...) }

// MustFDSet is NewFDSet panicking on error.
func MustFDSet(fds ...FD) *FDSet { return fd.MustSet(fds...) }

// ClassifyCQWithFDs reports whether the CQ's FD-extension is free-connex:
// the FD-aware tractability condition behind Remark 2. A CQ that is
// intractable in general may become constant-delay enumerable on schemas
// whose FDs determine its existential join variables.
func ClassifyCQWithFDs(q *CQ, fds *FDSet) (extended *CQ, fdFreeConnex bool) {
	return fds.ExtendCQ(q), fds.IsFDFreeConnex(q)
}

// EnumerateCQWithFDs enumerates q over an FD-satisfying instance through
// its FD-extension, with linear preprocessing and constant delay when the
// extension is free-connex. It errors when the extension is not
// free-connex or the instance violates an FD.
func EnumerateCQWithFDs(q *CQ, fds *FDSet, inst *Instance) (Answers, error) {
	return fds.EnumerateCQ(q, inst)
}
