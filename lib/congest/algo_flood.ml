let max_id ~rounds = Fastpath.to_program (Fastpath.max_id ~rounds)

let leader_election ~rounds =
  let inner = max_id ~rounds in
  {
    Program.name = "leader-election";
    spawn =
      (fun view ->
        let inst = inner.Program.spawn view in
        {
          Program.step = inst.Program.step;
          halted = inst.Program.halted;
          output =
            (fun () ->
              Option.map (fun m -> m = view.Program.id) (inst.Program.output ()));
        });
  }
