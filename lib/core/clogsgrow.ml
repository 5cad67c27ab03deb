(* CloGSgrow is the engine with plain instance growth plus the closure
   spec: CCheck/LBCheck before expansion, equal-support appends as free
   non-closedness proof. Each run owns one closure stack, so a node's
   check resumes the extension sets of its parent's. *)
let strategy ~use_lb_check ~use_c_check =
  let make_closure idx ~events ~trace =
    let stack =
      if use_c_check || use_lb_check then
        Some (Closure.stack idx ~candidate_events:events)
      else None
    in
    {
      Engine.check =
        (fun ~pattern ~support_set:_ ~prefix_rev_chain ->
          match stack with
          | None -> { Closure.closed = true; prunable = false }
          | Some stack ->
            let prefix_sets = Array.of_list (List.rev prefix_rev_chain) in
            let v =
              Closure.check ~trace stack ~prefix_sets ~pattern
                ~has_equal_append:false
            in
            if not use_lb_check then { v with Closure.prunable = false }
            else if not use_c_check then { v with Closure.closed = true }
            else v);
      detect_equal_append = use_c_check;
    }
  in
  {
    Engine.name = "Clogsgrow";
    grow = Support_set.grow;
    closure = Some make_closure;
  }
