exception Expired

type t = {
  deadline : int; (* monotonic nanoseconds; [max_int] = unlimited *)
  mutable ticks : int;
      (* unsynchronized poll counter shared across domains: lost updates
         only postpone the next clock poll, never correctness *)
}

let poll_mask = 0xFF

let unlimited = { deadline = max_int; ticks = 0 }

(* A timeout too long for the clock saturates just below [max_int]
   ({!Clock.after_ms}): still limited, but it never expires in practice. *)
let of_timeout_ms ms =
  if ms <= 0 then invalid_arg "Budget.of_timeout_ms: timeout must be positive";
  { deadline = Clock.after_ms ms; ticks = 0 }

let is_limited b = b.deadline < max_int

let expired b = b.deadline < max_int && Clock.now_ns () > b.deadline

let check b =
  if b.deadline < max_int then begin
    b.ticks <- b.ticks + 1;
    if b.ticks land poll_mask = 0 && Clock.now_ns () > b.deadline then
      raise Expired
  end

let polls b = b.ticks

let remaining_ms b =
  if b.deadline = max_int then None
  else
    let left = b.deadline - Clock.now_ns () in
    Some (if left <= 0 then 0 else ((left - 1) / 1_000_000) + 1)
