"""Mixed cross-entropy losses with an LDA-derived class-similarity prior,
plus a small fully-connected training harness."""
