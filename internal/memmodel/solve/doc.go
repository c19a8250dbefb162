// Package solve is empty. The constraint solver behind
// memmodel.CheckOptions.Mode "solve" lives in package memmodel
// (internal/memmodel/solve.go); this package remains only for importers
// that still name it.
package solve
