open Rgs_sequence

type site_kind =
  | Insgrow
  | Worker
  | Checkpoint_io
  | Socket_write
  | Shard_merge

type plan = { id : int; kind : site_kind; trigger : int; persistent : bool }

exception Injected of plan

let kind_name = function
  | Insgrow -> "insgrow"
  | Worker -> "worker"
  | Checkpoint_io -> "checkpoint_io"
  | Socket_write -> "socket_write"
  | Shard_merge -> "shard_merge"

let pp_plan ppf p =
  Format.fprintf ppf "plan %d: %s after %d firing(s), %s" p.id
    (kind_name p.kind) p.trigger
    (if p.persistent then "persistent" else "transient")

(* self-contained (lib/core cannot see rgs_datagen) and deterministic
   across runs, which rules out [Random]'s global state *)
let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

let plans ?(kinds = [ Insgrow; Worker; Checkpoint_io ]) ~seed ~count () =
  if kinds = [] then invalid_arg "Chaos.plans: kinds must be non-empty";
  if count < 0 then invalid_arg "Chaos.plans: count must be >= 0";
  let state = ref (Int64.of_int seed) in
  let kinds = Array.of_list kinds in
  List.init count (fun id ->
      (* cycle kinds so a small sweep still covers every site *)
      let kind = kinds.(id mod Array.length kinds) in
      let trigger = 1 + (splitmix state mod 8) in
      let persistent = splitmix state land 1 = 1 in
      { id; kind; trigger; persistent })

let matches kind site =
  match (kind, site) with
  | Insgrow, Budget.Fault.Insgrow -> true
  | Worker, Budget.Fault.Worker _ -> true
  | Checkpoint_io, Budget.Fault.Checkpoint_io -> true
  | Socket_write, Budget.Fault.Socket_write -> true
  | Shard_merge, Budget.Fault.Shard_merge -> true
  | _ -> false

let inject plan f =
  (* pool workers fire sites from several domains at once *)
  let fired = Atomic.make 0 in
  Budget.Fault.with_hook
    (fun site ->
      if matches plan.kind site then begin
        let n = 1 + Atomic.fetch_and_add fired 1 in
        if n = plan.trigger || (plan.persistent && n > plan.trigger) then
          raise (Injected plan)
      end)
    f

(* --- job-level plans (daemon chaos) --- *)

type job_site =
  | Client_disconnect
  | Overlapping_resume
  | Socket_write_fail
  | Kill_mid_drain

type job_plan = { jid : int; site : job_site; delay : int }

let job_site_name = function
  | Client_disconnect -> "client_disconnect"
  | Overlapping_resume -> "overlapping_resume"
  | Socket_write_fail -> "socket_write_fail"
  | Kill_mid_drain -> "kill_mid_drain"

let pp_job_plan ppf p =
  Format.fprintf ppf "job plan %d: %s, delay %d" p.jid (job_site_name p.site)
    p.delay

let job_plans ?(sites = [ Client_disconnect; Overlapping_resume; Socket_write_fail; Kill_mid_drain ])
    ~seed ~count () =
  if sites = [] then invalid_arg "Chaos.job_plans: sites must be non-empty";
  if count < 0 then invalid_arg "Chaos.job_plans: count must be >= 0";
  let state = ref (Int64.of_int seed) in
  let sites = Array.of_list sites in
  List.init count (fun jid ->
      (* cycle sites so a small sweep still covers every failure mode *)
      let site = sites.(jid mod Array.length sites) in
      let delay = 1 + (splitmix state mod 8) in
      { jid; site; delay })

let fault_plan_of_job { jid; site; delay } =
  match site with
  | Socket_write_fail ->
    Some { id = jid; kind = Socket_write; trigger = delay; persistent = false }
  | Client_disconnect | Overlapping_resume | Kill_mid_drain -> None

(* --- process-level plans (supervised shard workers, @supervise tier).

   These faults fire inside a separate worker process, so they travel as
   an environment variable rather than a [Budget.Fault] hook: the
   supervisor serialises a plan with [worker_fault_to_string] into
   [worker_fault_env], and the worker arms it with
   [worker_fault_of_string] at startup. Transient plans are armed only in
   the first incarnation (the supervisor exports the restart generation
   in [worker_restart_env]), so a restart recovers; persistent plans
   re-fire until the restart budget quarantines the shard. *)

type proc_site =
  | Proc_kill  (** [kill -9] self mid-shard (simulates a segfault) *)
  | Proc_hang  (** stop heartbeating and sleep forever *)
  | Proc_corrupt  (** reply with a garbage frame (CRC mismatch) *)
  | Proc_slow  (** delay every reply; liveness must tolerate it *)

type proc_plan = {
  wid : int;
  psite : proc_site;
  after : int;  (** fire on the [after]-th growth request, 1-based *)
  persist : bool;
}

let proc_site_name = function
  | Proc_kill -> "kill"
  | Proc_hang -> "hang"
  | Proc_corrupt -> "corrupt"
  | Proc_slow -> "slow"

let pp_proc_plan ppf p =
  Format.fprintf ppf "proc plan %d: %s after %d grow(s), %s" p.wid
    (proc_site_name p.psite) p.after
    (if p.persist then "persistent" else "transient")

let proc_plans
    ?(sites = [ Proc_kill; Proc_hang; Proc_corrupt; Proc_slow ]) ~seed ~count
    () =
  if sites = [] then invalid_arg "Chaos.proc_plans: sites must be non-empty";
  if count < 0 then invalid_arg "Chaos.proc_plans: count must be >= 0";
  let state = ref (Int64.of_int seed) in
  let sites = Array.of_list sites in
  List.init count (fun wid ->
      (* cycle sites so a small sweep still covers every failure mode *)
      let psite = sites.(wid mod Array.length sites) in
      let after = 1 + (splitmix state mod 4) in
      let persist = splitmix state land 1 = 1 in
      { wid; psite; after; persist })

let worker_fault_env = "RGS_WORKER_FAULT"
let worker_restart_env = "RGS_WORKER_RESTART"

let worker_fault_to_string p =
  Printf.sprintf "%s:%d%s" (proc_site_name p.psite) p.after
    (if p.persist then ":persist" else "")

let proc_site_of_name = function
  | "kill" -> Some Proc_kill
  | "hang" -> Some Proc_hang
  | "corrupt" -> Some Proc_corrupt
  | "slow" -> Some Proc_slow
  | _ -> None

let worker_fault_of_string s =
  let parse name after persist =
    match (proc_site_of_name name, int_of_string_opt after) with
    | Some psite, Some after when after >= 1 -> Some (psite, after, persist)
    | _ -> None
  in
  match String.split_on_char ':' s with
  | [ name; after ] -> parse name after false
  | [ name; after; "persist" ] -> parse name after true
  | _ -> None

(* --- the invariant --- *)

let root_of m = Pattern.get m.Mined.pattern 1

let signature_of m =
  (Pattern.to_list m.Mined.pattern, m.Mined.support)

(* Group a result list by DFS root, preserving each root's pattern order —
   within a root the miners are sequential, so surviving roots must match
   the baseline exactly, order included. *)
let group results =
  let tbl : (Event.t, (Event.t list * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let roots = ref [] in
  List.iter
    (fun m ->
      let r = root_of m in
      match Hashtbl.find_opt tbl r with
      | None ->
        roots := r :: !roots;
        Hashtbl.replace tbl r [ signature_of m ]
      | Some group -> Hashtbl.replace tbl r (signature_of m :: group))
    results;
  Hashtbl.iter (fun r g -> Hashtbl.replace tbl r (List.rev g)) tbl;
  (tbl, List.rev !roots)

let pp_root = Format.pp_print_int

let check_invariant ~baseline ~faulty ~quarantined =
  let base_tbl, base_roots = group baseline in
  let faulty_tbl, faulty_roots = group faulty in
  let invented =
    List.filter (fun r -> not (Hashtbl.mem base_tbl r)) faulty_roots
  in
  match invented with
  | r :: _ ->
    Error
      (Format.asprintf "root %a appears only in the faulty run" pp_root r)
  | [] -> (
    let missing = ref 0 in
    let first_error = ref None in
    List.iter
      (fun r ->
        match Hashtbl.find_opt faulty_tbl r with
        | None -> incr missing
        | Some g ->
          if g <> Hashtbl.find base_tbl r && !first_error = None then
            first_error :=
              Some
                (Format.asprintf
                   "root %a differs from the fault-free run (%d vs %d \
                    pattern(s))"
                   pp_root r (List.length g)
                   (List.length (Hashtbl.find base_tbl r))))
      base_roots;
    match !first_error with
    | Some e -> Error e
    | None ->
      if !missing <> quarantined then
        Error
          (Printf.sprintf
             "%d root(s) missing from the faulty output but %d quarantined"
             !missing quarantined)
      else Ok ())
