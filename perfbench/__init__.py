"""Cold end-to-end benchmark of the paper workloads; see README.md."""
