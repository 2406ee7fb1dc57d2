let mis = Fastpath.to_program Fastpath.greedy_mis
