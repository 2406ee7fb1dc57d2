let distances ~root ~rounds =
  Fastpath.to_program (Fastpath.bfs_distances ~root ~rounds)
