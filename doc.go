// Package picmcio is a simulation-grounded reproduction of "Enabling
// High-Throughput Parallel I/O in Particle-in-Cell Monte Carlo
// Simulations with openPMD and Darshan I/O Monitoring" (CLUSTER 2024):
// a 1D3V PIC MC code (BIT1-like), an openPMD/ADIOS2-BP4 I/O stack, a
// Darshan-style monitor, and simulated Lustre machines, all in pure Go.
//
// See README.md for the layout and DESIGN.md for the system inventory;
// layering_test.go holds the order the packages under internal/ import
// each other in, and deadexports_test.go that each exports only what
// something shipped calls.
package picmcio
