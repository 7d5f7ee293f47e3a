module Plan = Tessera_opt.Plan
module Features = Tessera_features.Features

type loop_class = No_loops | Has_loops | Many_iterations

let of_attributes (a : Features.loop_attributes) =
  if a.Features.many_iteration_loops || a.Features.may_have_many_iteration_loops
  then Many_iterations
  else if a.Features.may_have_loops then Has_loops
  else No_loops

let loop_class_of m = of_attributes (Features.loop_attributes m)

let loop_class_of_features f =
  of_attributes
    {
      Features.many_iteration_loops = Features.get f 10 <> 0;
      may_have_loops = Features.get f 11 <> 0;
      may_have_many_iteration_loops = Features.get f 12 <> 0;
    }

let base_trigger = function
  | Plan.Cold -> 8
  | Plan.Warm -> 25
  | Plan.Hot -> 80
  | Plan.Very_hot -> 8_000
  | Plan.Scorching -> 40_000

let trigger level cls =
  let b = base_trigger level in
  match cls with
  | Many_iterations -> max 1 (b / 4)
  | Has_loops -> max 1 (b / 2)
  | No_loops -> b

let sample_promote_cycles = 600_000_000L (* 300 virtual ms *)

let failure_backoff attempts =
  if attempts <= 0 then 1 else 1 lsl min attempts 6
